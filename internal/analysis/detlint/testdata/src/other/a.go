// Package other is outside the determinism-critical set: identical
// constructs draw no diagnostics here (internal/sim/shard legitimately
// reads clocks for retry deadlines).
package other

import "time"

func clockFine() int64 {
	return time.Now().UnixNano()
}

func keysFine(m map[int]string) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func spawnFine(done chan struct{}) {
	go func() { close(done) }()
}
