package timestamp

// The external tests build their graphs with packages that import this
// one, and check them with the internal reference.
var (
	CheckAlignment = checkAlignment
	CheckSpace     = checkSpace
)
