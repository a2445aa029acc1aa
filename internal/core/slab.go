package core

// Flat storage for many sets and many scratch buffers: the building
// blocks of the multi-instance fleet engine (internal/fleet), extracted
// here because they are pure process-set machinery.
//
// A SetBank packs the word storage of `count` sets over one universe
// into a single []uint64 slab, so round state for thousands of
// concurrent executions is one contiguous allocation instead of
// thousands of small ones — sequential row access walks memory linearly,
// which is what lets a fleet shard stay in cache while it sweeps its
// instances. An Arena is a bump allocator for the slabs themselves: a
// shard carves every working array from one arena, and a Reset reclaims
// the whole working set in O(1) without freeing the blocks.

// SetBank is `count` sets over a universe of n processes packed into one
// word slab. Row i occupies words [i*W, (i+1)*W) where W = (n+63)/64.
// The zero value is an empty bank; use NewSetBank.
type SetBank struct {
	words []uint64
	n     int // universe size
	w     int // words per row
}

// NewSetBank returns a bank of count empty sets over a universe of n
// processes, backed by one freshly allocated slab.
func NewSetBank(n, count int) *SetBank {
	b := &SetBank{}
	b.Init(make([]uint64, wordsPerSet(n)*count), n, count)
	return b
}

// wordsPerSet returns the slab words one set over n processes occupies.
func wordsPerSet(n int) int { return (n + 63) / 64 }

// Init points the bank at caller-provided word storage, which must hold
// at least wordsPerSet(n)*count words. The words are zeroed.
func (b *SetBank) Init(words []uint64, n, count int) {
	w := wordsPerSet(n)
	need := w * count
	if len(words) < need {
		panic("core: SetBank storage too small")
	}
	b.words, b.n, b.w = words[:need], n, w
	clear(b.words)
}

// Row returns row i as a Set aliasing the slab words: mutations through
// the view mutate the bank, and no allocation happens. The view stays
// valid until the bank is re-Init'd.
func (b *SetBank) Row(i int) Set {
	return Set{words: b.words[i*b.w : (i+1)*b.w], n: b.n}
}

// Add inserts p into row i.
func (b *SetBank) Add(i int, p PID) {
	if p < 0 || int(p) >= b.n {
		return
	}
	b.words[i*b.w+int(p)/64] |= 1 << (uint(p) % 64)
}

// Has reports whether p is a member of row i.
func (b *SetBank) Has(i int, p PID) bool {
	if p < 0 || int(p) >= b.n {
		return false
	}
	return b.words[i*b.w+int(p)/64]&(1<<(uint(p)%64)) != 0
}

// Clear empties row i.
func (b *SetBank) Clear(i int) {
	clear(b.words[i*b.w : (i+1)*b.w])
}

// Arena is a bump allocator for flat working storage. Allocations come
// from geometrically growing blocks; Reset makes every block available
// again without freeing, so a steady-state consumer (one fleet shard,
// say) allocates real memory only on its first pass. An Arena is not
// safe for concurrent use — the fleet holds one per shard.
type Arena struct {
	blocks  [][]uint64 // all blocks ever allocated, in allocation order
	current int        // index into blocks of the block being bumped
	used    int        // words consumed from the current block
}

// arenaMinBlock is the smallest block an Arena allocates, in words.
const arenaMinBlock = 1024

// Uint64s returns a zeroed []uint64 of length n carved from the arena.
func (a *Arena) Uint64s(n int) []uint64 {
	if n == 0 {
		return nil
	}
	for a.current < len(a.blocks) {
		if blk := a.blocks[a.current]; len(blk)-a.used >= n {
			out := blk[a.used : a.used+n : a.used+n]
			a.used += n
			clear(out)
			return out
		}
		a.current++
		a.used = 0
	}
	size := arenaMinBlock
	if len(a.blocks) > 0 {
		size = 2 * len(a.blocks[len(a.blocks)-1])
	}
	if size < n {
		size = n
	}
	a.blocks = append(a.blocks, make([]uint64, size))
	a.current = len(a.blocks) - 1
	out := a.blocks[a.current][:n:n]
	a.used = n
	return out
}

// Reset reclaims everything the arena has handed out. Previously
// returned slices must no longer be used.
func (a *Arena) Reset() {
	a.current, a.used = 0, 0
}
