package sharegraph

import "testing"

// FuzzIEJKLoopSearch derives a register placement and a client assignment
// from raw fuzz bytes and requires the loop engine (search.go) and the
// reference DFS (loops_ref_test.go) to agree on (i, e_jk)-loop existence
// for every (i, e) pair, with every engine witness re-validated by the
// Definition 4 (or 27) checker and held to the bound. Each placement byte
// is a holder bitmask for one register over up to 7 replicas, so the
// fuzzer explores arbitrary shared-register hypergraphs, not just the
// generator families. The clients byte is the replica bitmask of one
// client: 0 searches the plain share graph, anything else the augmented
// graph Ĝ through NewAugmentedLoopSearcher. The truncation byte picks
// MaxLen, 0 (exact) through R+1.
func FuzzIEJKLoopSearch(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(0), []byte{0b0011, 0b0110, 0b1100, 0b1001})
	f.Add(uint8(7), uint8(0), uint8(0), []byte{0b0010011, 0b0110010, 0b1100100, 0b0001001, 0b1010000, 0b0100101})
	f.Add(uint8(5), uint8(3), uint8(0), []byte{0b11111, 0b10101, 0b01010, 0b00111})
	f.Add(uint8(6), uint8(0), uint8(0), []byte{0b110000, 0b011000, 0b001100, 0b000110, 0b000011, 0b100001})
	f.Add(uint8(4), uint8(0), uint8(0b0101), []byte{0b0011, 0b1100, 0b1001})
	f.Add(uint8(5), uint8(4), uint8(0b10010), []byte{0b00011, 0b00110, 0b01100, 0b11000, 0b10001})
	f.Fuzz(func(t *testing.T, nrep, trunc, clients uint8, placement []byte) {
		n := 2 + int(nrep)%6 // 2..7 replicas
		if len(placement) > 12 {
			placement = placement[:12]
		}
		stores := make([][]Register, n)
		for r, bits := range placement {
			reg := Register('a' + rune(r))
			for i := 0; i < n; i++ {
				if bits&(1<<i) != 0 {
					stores[i] = append(stores[i], reg)
				}
			}
		}
		g, err := New(stores)
		if err != nil {
			t.Fatal(err) // n >= 2 replicas always
		}
		var a *AugmentedGraph
		var client []ReplicaID
		for i := 0; i < n; i++ {
			if clients&(1<<i) != 0 {
				client = append(client, ReplicaID(i))
			}
		}
		if client != nil {
			if a, err = NewAugmented(g, ClientAssignment{client}); err != nil {
				t.Fatal(err)
			}
		}
		opts := LoopOptions{MaxLen: int(trunc) % (n + 2)} // 0 = exact, else truncated
		checkEngineAgreement(t, "fuzz", g, a, opts)
	})
}
