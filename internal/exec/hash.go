package exec

// Open-addressing int64 hash tables for the join-build, probe, and
// aggregation kernels. Both tables share the same layout: parallel
// key/value/used arrays with power-of-two capacity, linear probing, and
// no tombstones (the engine's tables are insert-only within a query, so
// deletion never happens and probes terminate at the first free slot).
// Compared to map[int64]T this removes per-operation hashing interface
// overhead, bucket pointer chasing, and incremental-growth write
// barriers from the per-row hot loops.

const (
	// tableMinCap is the smallest backing array; small enough that
	// per-operator tables stay cheap, large enough to avoid immediate
	// regrowth for typical blocks.
	tableMinCap = 64
	// fibMult is the 64-bit Fibonacci hashing multiplier (2^64/phi).
	fibMult = 0x9E3779B97F4A7C15
)

// hashSlot maps a key to its home slot for a table with the given shift
// (64 - log2(capacity)). Multiply-shift spreads dense integer keys —
// the common case for synthetic join keys — across the high bits.
func hashSlot(k int64, shift uint) uint64 {
	return (uint64(k) * fibMult) >> shift
}

// CountTable counts occurrences per int64 key: one partition of the
// hash-join build side (key -> number of build rows, see RadixTable).
type CountTable struct {
	keys   []int64
	counts []int64
	used   []bool
	n      int // occupied slots
	total  int64
	mask   uint64
	shift  uint
}

func capFor(hint int) int {
	c := tableMinCap
	for c < hint*2 {
		c <<= 1
	}
	return c
}

func (t *CountTable) init(capacity int) {
	t.keys = make([]int64, capacity)
	t.counts = make([]int64, capacity)
	t.used = make([]bool, capacity)
	t.n = 0
	t.mask = uint64(capacity - 1)
	t.shift = 64 - log2(capacity)
}

func log2(c int) uint {
	var s uint
	for c > 1 {
		c >>= 1
		s++
	}
	return s
}

// Add increments the count of k, growing the table when load passes 3/4.
func (t *CountTable) Add(k int64) {
	if t.keys == nil {
		t.init(tableMinCap)
	}
	t.total++
	i := hashSlot(k, t.shift)
	for t.used[i] {
		if t.keys[i] == k {
			t.counts[i]++
			return
		}
		i = (i + 1) & t.mask
	}
	t.keys[i] = k
	t.counts[i] = 1
	t.used[i] = true
	t.n++
	if uint64(t.n)*4 > (t.mask+1)*3 {
		t.grow()
	}
}

func (t *CountTable) grow() {
	keys, counts, used := t.keys, t.counts, t.used
	t.init(len(keys) * 2)
	for i, u := range used {
		if !u {
			continue
		}
		j := hashSlot(keys[i], t.shift)
		for t.used[j] {
			j = (j + 1) & t.mask
		}
		t.keys[j] = keys[i]
		t.counts[j] = counts[i]
		t.used[j] = true
		t.n++
	}
}

// Count returns the count stored for k (0 when absent).
func (t *CountTable) Count(k int64) int64 {
	if t == nil || t.keys == nil {
		return 0
	}
	i := hashSlot(k, t.shift)
	for t.used[i] {
		if t.keys[i] == k {
			return t.counts[i]
		}
		i = (i + 1) & t.mask
	}
	return 0
}

// Len returns the number of distinct keys.
func (t *CountTable) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Total returns the sum of all counts (number of Add calls).
func (t *CountTable) Total() int64 {
	if t == nil {
		return 0
	}
	return t.total
}

// SumTable accumulates a float64 per int64 key: the grouped-aggregate
// state (key -> running sum/count).
type SumTable struct {
	keys  []int64
	sums  []float64
	used  []bool
	n     int
	mask  uint64
	shift uint
}

// NewSumTable returns a table pre-sized for about hint distinct keys.
func NewSumTable(hint int) *SumTable {
	t := &SumTable{}
	t.initSum(capFor(hint))
	return t
}

func (t *SumTable) initSum(capacity int) {
	t.keys = make([]int64, capacity)
	t.sums = make([]float64, capacity)
	t.used = make([]bool, capacity)
	t.n = 0
	t.mask = uint64(capacity - 1)
	t.shift = 64 - log2(capacity)
}

// Add adds v to the accumulator of k.
func (t *SumTable) Add(k int64, v float64) {
	if t.keys == nil {
		t.initSum(tableMinCap)
	}
	i := hashSlot(k, t.shift)
	for t.used[i] {
		if t.keys[i] == k {
			t.sums[i] += v
			return
		}
		i = (i + 1) & t.mask
	}
	t.keys[i] = k
	t.sums[i] = v
	t.used[i] = true
	t.n++
	if uint64(t.n)*4 > (t.mask+1)*3 {
		t.growSum()
	}
}

// Reset clears the table for reuse while keeping its capacity, so a
// pooled table serves its next query without re-growing.
func (t *SumTable) Reset() {
	for i := range t.used {
		t.used[i] = false
	}
	t.n = 0
}

// AddOnes adds 1 to the accumulator of every key in one block's key
// column — the count-per-group aggregate kernel.
func (t *SumTable) AddOnes(keys []int64) {
	for _, k := range keys {
		t.Add(k, 1)
	}
}

func (t *SumTable) growSum() {
	keys, sums, used := t.keys, t.sums, t.used
	t.initSum(len(keys) * 2)
	for i, u := range used {
		if !u {
			continue
		}
		j := hashSlot(keys[i], t.shift)
		for t.used[j] {
			j = (j + 1) & t.mask
		}
		t.keys[j] = keys[i]
		t.sums[j] = sums[i]
		t.used[j] = true
		t.n++
	}
}

// Sum returns the accumulator for k (0 when absent).
func (t *SumTable) Sum(k int64) float64 {
	if t == nil || t.keys == nil {
		return 0
	}
	i := hashSlot(k, t.shift)
	for t.used[i] {
		if t.keys[i] == k {
			return t.sums[i]
		}
		i = (i + 1) & t.mask
	}
	return 0
}

// Len returns the number of distinct keys.
func (t *SumTable) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Export appends every (key, sum) pair to the given slices (either may
// be nil) in slot order and returns them — the finalize-aggregate
// input. Slot order is deterministic for a fixed insertion history.
func (t *SumTable) Export(keys []int64, sums []float64) ([]int64, []float64) {
	if t == nil {
		return keys, sums
	}
	for i, u := range t.used {
		if u {
			keys = append(keys, t.keys[i])
			sums = append(sums, t.sums[i])
		}
	}
	return keys, sums
}
