package rwa

import (
	"encoding/binary"
	"math"
	"sync"

	"github.com/arrow-te/arrow/internal/graph"
	"github.com/arrow-te/arrow/internal/optical"
)

// Memo is what the RWA solves of one plan share. An offline plan asks the
// same surrogate-path questions over and over: the benchmark's B4 + SRLG plan
// runs 22,475 (failed link, scenario) searches with 270 distinct answers, and
// its 16,055 non-empty option lists hold 1,056 distinct ones. A Memo keeps
//
//   - one ranked path list per (link endpoints, reach), which answers each
//     masked search exactly or hands it to the search itself
//     (graph.PathMemo states when the list is exact); and
//   - one copy of each distinct option set, keyed by its content (per
//     option the link, fibers, length and slots), so a Result's Options are
//     the memo's shared slice.
//
// Neither changes what a solve returns, only what it allocates and keeps. A
// Memo serves one network, which must not change while the memo is in use,
// and is safe for concurrent solves. Its options carry their path keys, so
// they serve ExportBasis and WarmFrom solves alike.
type Memo struct {
	net   *optical.Network
	paths *graph.PathMemo

	mu   sync.Mutex
	sets map[string][]PathOption
}

// NewMemo returns an empty memo for solves on net.
func NewMemo(net *optical.Network) *Memo {
	return &Memo{net: net, paths: graph.NewPathMemo(net.Graph()), sets: map[string][]PathOption{}}
}

// intern returns the memo's copy of the options built in sc, making it from
// them the first time.
func (m *Memo) intern(sc *scratch, tuning bool) []PathOption {
	key := sc.optionKey()
	m.mu.Lock()
	defer m.mu.Unlock()
	if opts, ok := m.sets[string(key)]; ok {
		return opts
	}
	opts := sc.ownOptions(tuning, true)
	m.sets[string(key)] = opts
	return opts
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
