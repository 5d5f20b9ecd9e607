// Package part stands in for the determinism-critical refiner: every
// construct here must be a pure function of its inputs.
package part

import (
	"math/rand"
	"sort"
	"time"
)

// clockBad reads the wall clock.
func clockBad() int64 {
	return time.Now().UnixNano() // want `time\.Now reads the wall clock`
}

// sinceBad measures with the wall clock.
func sinceBad(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time\.Since reads the wall clock`
}

// randBad draws from the process-shared generator.
func randBad(n int) int {
	return rand.Intn(n) // want `global math/rand\.Intn`
}

// randGood uses an explicitly seeded generator.
func randGood(n int, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(n)
}

// keysBad collects map keys in iteration order and never restores a
// canonical order.
func keysBad(m map[int]string) []int {
	var keys []int
	for k := range m { // want `map iteration writes into "keys"`
		keys = append(keys, k)
	}
	return keys
}

// counterIndexBad writes through an outer counter, so element order is
// iteration order.
func counterIndexBad(m map[int]string) []int {
	out := make([]int, len(m))
	i := 0
	for k := range m { // want `map iteration writes into "out"`
		out[i] = k
		i++
	}
	return out
}

// keysSorted restores canonical order immediately after collecting.
func keysSorted(m map[int]string) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// keyIndexed writes s[k] at distinct keys: commutative, order-free.
func keyIndexed(m map[int]int, n int) []int {
	out := make([]int, n)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// counted accumulates a commutative reduction; nothing slice-shaped
// depends on order.
func counted(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// allowedCollect demonstrates an audited exemption: the caller
// re-sorts.
func allowedCollect(m map[int]string) []int {
	var keys []int
	//lint:allow detlint caller canonicalizes via Renumber before use
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// spawnBad fans out with a goroutine of its own instead of par.For.
func spawnBad(done chan struct{}) {
	go func() { close(done) }() // want `go statement in a determinism-critical package`
}

// spawnAllowed demonstrates an audited exemption.
func spawnAllowed(done chan struct{}) {
	//lint:allow detlint the goroutine only signals; nothing it does reaches an output
	go func() { close(done) }()
}
