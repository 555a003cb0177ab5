package rwa

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"github.com/arrow-te/arrow/internal/graph"
	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/optical"
)

// Memo is what the RWA solves of one plan share. An offline plan asks the
// same questions over and over: the benchmark's B4 + SRLG plan runs 22,475
// (failed link, scenario) path searches with 270 distinct answers, its 16,055
// non-empty option lists hold 1,056 distinct ones, and 851 distinct blocks
// make up its 1,748 assignment LPs. A Memo keeps one ranked path list per
// (link endpoints, reach), which answers each masked search exactly or hands
// it to the search itself (graph.PathMemo states when the list is exact);
// one copy of each distinct option set, keyed by its content (per option the
// link, fibers, length and slots); and per distinct block the Result that
// solved it (see block). None of this changes what a solve returns. A Memo
// serves one network, which must not change while the memo is in use, and
// the requests of one plan (one HealthEvery); it is safe for concurrent use.
type Memo struct {
	net   *optical.Network
	paths *graph.PathMemo

	mu     sync.Mutex
	sets   map[string]uint32             // an option set's content to its number
	opts   [][]PathOption                // by number, the interned option sets
	blocks map[blockKey]*Result          // nil while the block's solve runs
	health map[blockKey]*lp.HealthReport // of the blocks whose solve made one
	done   sync.Cond                     // on mu, broadcast when a block's solve ends
}

// blockKey names a block: a hash of its links' option set numbers, its first
// link ID and size, and the request's tuning and NoWarm, in 16 bytes (the
// map of blocks is most of what the memo allocates).
type blockKey struct {
	hash           uint64
	first          int32
	n              int16
	tuning, noWarm bool
}

// NewMemo returns an empty memo for solves on net.
func NewMemo(net *optical.Network) *Memo {
	m := &Memo{
		net: net, paths: graph.NewPathMemo(net.Graph()),
		sets: map[string]uint32{}, blocks: map[blockKey]*Result{}, health: map[blockKey]*lp.HealthReport{},
	}
	m.done.L = &m.mu
	return m
}

// block writes the FracWaves of the block links of res and returns the
// block LP's health report. The first solve to meet a block solves it; a
// later one reads the solving Result's FracWaves at the block's link IDs,
// bit for bit its own solve's, and one meeting the block in flight waits
// for it (DESIGN.md, "The RWA stage by blocks"). A nil memo, or a block
// whose first ID or size does not fit its key, is solved.
func (m *Memo) block(sc *scratch, req *Request, res *Result, links []int) (*lp.HealthReport, error) {
	if m == nil || len(links) > math.MaxInt16 || res.Failed[links[0]] > math.MaxInt32 {
		return sc.solveBlock(req, res, links)
	}
	key := blockKey{first: int32(res.Failed[links[0]]), n: int16(len(links)), tuning: req.AllowTuning, noWarm: req.NoWarm}
	for _, li := range links {
		// An interned option set is one link's, so the sum of their
		// numbers' mixes names the block's content.
		key.hash += mix64(uint64(sc.sets[li]))
	}
	m.mu.Lock()
	solved, ok := m.blocks[key]
	for ok && solved == nil {
		m.done.Wait()
		solved, ok = m.blocks[key]
	}
	if ok {
		health := m.health[key]
		m.mu.Unlock()
		// links are connected and as many as the block holding the first
		// link in solved: they are it if each has its options there.
		for _, li := range links {
			j := slices.Index(solved.Failed, res.Failed[li])
			if j < 0 || &solved.Options[j][0] != &res.Options[li][0] {
				return sc.solveBlock(req, res, links)
			}
			res.FracWaves[li] = solved.FracWaves[j]
		}
		obs.Add(req.Recorder, "rwa.block_hits", 1)
		return health, nil
	}
	m.blocks[key] = nil
	m.mu.Unlock()
	health, err := sc.solveBlock(req, res, links)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done.Broadcast()
	if err != nil {
		delete(m.blocks, key) // a waiter solves it itself
		return nil, err
	}
	m.blocks[key] = res
	if health != nil {
		m.health[key] = health
	}
	return health, nil
}

// intern returns the memo's copy of the options built in sc, making it from
// them the first time, and its number: the sets are numbered 0, 1, … in the
// order the memo meets them.
func (m *Memo) intern(sc *scratch, tuning bool) ([]PathOption, uint32) {
	key := sc.optionKey()
	m.mu.Lock()
	defer m.mu.Unlock()
	if n, ok := m.sets[string(key)]; ok {
		return m.opts[n], n
	}
	n := uint32(len(m.opts))
	m.opts = append(m.opts, sc.ownOptions(tuning))
	m.sets[string(key)] = n
	return m.opts[n], n
}

// mix64 is splitmix64's finaliser: it spreads consecutive set numbers over
// all 64 bits, so that their sums rarely meet.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// optionKey encodes the content of the options built in sc: per option its
// link, fibers, length and slots. The rest follows from these: the
// modulation from the link's own and the length, and the original slots from
// the link's wavelengths and the slots (without tuning every usable slot is
// an original one, so equal slots give equal original slots in either mode).
func (sc *scratch) optionKey() []byte {
	b := sc.key[:0]
	for i, opt := range sc.opts {
		sp := sc.spans[i]
		b = binary.AppendVarint(b, int64(opt.LinkID))
		b = appendInts(b, sc.ints[sp.fibers:sp.slots])
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(opt.LengthKm))
		b = appendInts(b, sc.ints[sp.slots:sp.orig])
	}
	sc.key = b
	return b
}

// appendInts appends xs, length first.
func appendInts(b []byte, xs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}
