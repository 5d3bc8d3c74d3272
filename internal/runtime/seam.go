package runtime

import "time"

// Backoff returns the delay before retry attempt n (n ≥ 1): base doubled
// per attempt, saturating at max. It is the repository's single retry
// discipline — the fault layer's retransmit queue and the wire
// transport's reconnect loop both use it, so an unclamped base<<attempts
// can never overflow time.Duration into immediate-retry storms.
func Backoff(base time.Duration, attempts int, max time.Duration) time.Duration {
	if base <= 0 || base >= max {
		return max
	}
	d := base
	for i := 1; i < attempts; i++ {
		d <<= 1
		if d <= 0 || d >= max {
			return max
		}
	}
	return d
}
