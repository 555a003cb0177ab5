// Package spectrum models the optical fiber spectrum: the ITU-T DWDM grid
// of wavelength slots, per-fiber occupancy bitmaps, the wavelength
// continuity constraint, and the modulation-format reach table that bounds
// surrogate restoration path lengths (Table 6 of the ARROW paper).
package spectrum

import (
	"fmt"
	"math/bits"
)

// DefaultSlots is the number of wavelength slots per fiber under the ITU-T
// flexi-grid DWDM standard used in the paper's formulation (Appendix A.2:
// "e.g., 96 wavelength slots under ITU-T DWDM standard").
const DefaultSlots = 96

// Bitmap is a set of wavelength slots, one bit per slot. A set bit means the
// slot is AVAILABLE for restoration; a clear bit means it already carries a
// working wavelength (matching Appendix A.2's phi.spectrum convention).
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns a bitmap of n slots, all unavailable (zero).
func NewBitmap(n int) *Bitmap {
	if n <= 0 {
		panic("spectrum: non-positive slot count")
	}
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// AllAvailable returns a bitmap of n slots, all available.
func AllAvailable(n int) *Bitmap {
	b := NewBitmap(n)
	for i := 0; i < n; i++ {
		b.Set(i, true)
	}
	return b
}

// Len returns the number of slots.
func (b *Bitmap) Len() int { return b.n }

// Set marks slot i available (true) or occupied (false).
func (b *Bitmap) Set(i int, available bool) {
	b.check(i)
	if available {
		b.words[i/64] |= 1 << uint(i%64)
	} else {
		b.words[i/64] &^= 1 << uint(i%64)
	}
}

// Available reports whether slot i is free for restoration.
func (b *Bitmap) Available(i int) bool {
	b.check(i)
	return b.words[i/64]&(1<<uint(i%64)) != 0
}

func (b *Bitmap) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("spectrum: slot %d out of range [0,%d)", i, b.n))
	}
}

// Count returns the number of available slots.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Utilization returns the fraction of slots occupied by working wavelengths
// (the paper's "spectrum utilization", Fig. 5).
func (b *Bitmap) Utilization() float64 {
	return 1 - float64(b.Count())/float64(b.n)
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	return &Bitmap{words: append([]uint64(nil), b.words...), n: b.n}
}

// CopyFrom overwrites b with o's availability. The sizes must match.
func (b *Bitmap) CopyFrom(o *Bitmap) {
	if b.n != o.n {
		panic("spectrum: copying between bitmaps of different sizes")
	}
	copy(b.words, o.words)
}

// Clear marks every slot unavailable.
func (b *Bitmap) Clear() { clear(b.words) }

// IntersectInto intersects o into b in place: b keeps the slots available in
// both. This realises the wavelength continuity constraint: a wavelength is
// reconfigurable onto a multi-fiber path only in slots free on EVERY fiber.
func (b *Bitmap) IntersectInto(o *Bitmap) {
	if b.n != o.n {
		panic("spectrum: intersecting bitmaps of different sizes")
	}
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// AppendAvailable appends the available slots, ascending, to dst.
func (b *Bitmap) AppendAvailable(dst []int) []int {
	for wi, w := range b.words {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, wi*64+bits.TrailingZeros64(w))
		}
	}
	return dst
}

// Modulation is an optical modulation format with its data rate and maximum
// transparent reach, per the paper's Table 6 (Facebook's terrestrial
// long-haul transponder specification).
type Modulation struct {
	GbpsPerWavelength float64
	ReachKm           float64
	Name              string
}

// Table6 is the datarate-vs-reach specification sheet from the paper.
var Table6 = []Modulation{
	{100, 5000, "100G"},
	{200, 3000, "200G"},
	{300, 1500, "300G"},
	{400, 1000, "400G"},
}

// BestModulation returns the highest-rate modulation whose reach covers
// pathKm, and false if even the most robust format cannot reach.
func BestModulation(pathKm float64) (Modulation, bool) {
	best := Modulation{}
	found := false
	for _, m := range Table6 {
		if m.ReachKm >= pathKm && m.GbpsPerWavelength > best.GbpsPerWavelength {
			best, found = m, true
		}
	}
	return best, found
}

// ModulationByRate returns the modulation with the given data rate.
func ModulationByRate(gbps float64) (Modulation, bool) {
	for _, m := range Table6 {
		if m.GbpsPerWavelength == gbps {
			return m, true
		}
	}
	return Modulation{}, false
}

// PathSpectrum intersects the spectra of the fibers along a path, returning
// the slots usable end-to-end (wavelength continuity).
func PathSpectrum(fibers []*Bitmap) *Bitmap {
	if len(fibers) == 0 {
		return nil
	}
	out := fibers[0].Clone()
	for _, f := range fibers[1:] {
		out.IntersectInto(f)
	}
	return out
}
