package race

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/event"
	"repro/internal/snap"
	"repro/internal/vc"
)

// This file implements the pair-tracking cell table both vector-clock
// detectors (internal/core for WCP, internal/hb for HB) share. A cell holds
// the accesses of one kind (read or write) to one variable at one program
// location, and answers a single question at a later conflicting access:
// is every access recorded here ⊑ the current time? If not, the cell's
// location and the current one form a race pair.
//
// The join of the recorded accesses' times is ⊑ now exactly when each
// access is, and an access a by thread u is ⊑ a later time exactly when
// C_a(u) ≤ now(u): for HB this is the FastTrack epoch property, for WCP
// it is Lemma C.8, valid for accesses whose time is a pure clock time (no
// fork/join ancestry beyond the WCP clock). So a cell keeps, per thread
// that touched it, only that thread's latest own clock; a WCP access
// recorded while ancestry was active joins its whole effective time
// instead. Both kinds of contribution are compared the same way —
// componentwise against now — so the verdicts are exactly those of the
// full joined vector.
//
// A cell's clock covers a window [lo, lo+len) of thread ids, grown only
// when a thread outside it touches the cell, so recording a pure access is
// one max on one component and a cell touched by a handful of threads
// stays a handful of words at any thread count.

// fullCellWidth is the thread count up to which cells are full width from
// the start: 16 clocks fill one 64-byte cache line, and the fixed width
// keeps the compare the plain VC.Leq (unrolled at the smallest widths)
// with no window upkeep.
const fullCellWidth = 64 / 4

// cellScan is the table size up to which a location is found by scanning
// the table; larger tables are indexed.
const cellScan = 16

// cell is the pair-tracking state of one (variable, access kind, location):
// a clock over the thread window [lo, lo+n), stored at Cells.clk[off:].
type cell struct {
	loc   event.Loc
	lo, n int32
	off   int32
	last  int // trace index of the most recent access recorded here
}

// Cells is the cell table of one variable and access kind, in first-access
// order. Every cell's window lives in one shared clock slab, so a table
// costs a few allocations however many cells it holds. The zero value is
// an empty table.
type Cells struct {
	list []cell
	clk  []vc.Clock // the windows; never truncated, so clk[len:cap] is zero
	// index finds a location's cell once list outgrows cellScan: an
	// open-addressing table of list slot+1 (0 = empty), a power of two in
	// size and at most 3/4 full, keyed through the cells' locations — four
	// bytes a slot, where a Go map takes about sixteen an entry.
	index []int32
}

// Len returns the number of cells.
func (cs *Cells) Len() int { return len(cs.list) }

// window returns c's clock components.
func (cs *Cells) window(c *cell) vc.VC { return cs.clk[c.off : c.off+c.n] }

// cover grows c's window to include threads [lo, hi) of a width-thread
// clock, moving it to the end of the slab. Growth at least doubles the
// window, toward the side that needed it, so a cell spans the threads
// touching it after a few moves, and the slab space it leaves behind stays
// below its live window.
func (cs *Cells) cover(c *cell, lo, hi, width int) {
	clo, cn := int(c.lo), int(c.n)
	if cn == 0 {
		clo = lo
	}
	nlo, nhi := min(lo, clo), max(hi, clo+cn)
	size := min(max(nhi-nlo, 2*cn), width)
	if nlo == clo {
		nlo = min(clo, width-size)
	} else {
		nlo = max(nhi-size, 0)
	}
	off := len(cs.clk)
	cs.clk = slices.Grow(cs.clk, size)[:off+size]
	copy(cs.clk[off+clo-nlo:], cs.window(c))
	c.lo, c.n, c.off = int32(nlo), int32(size), int32(off)
}

// at returns the cell of loc, creating it for a width-thread detector.
func (cs *Cells) at(loc event.Loc, width int) *cell {
	if cs.index == nil {
		for k := range cs.list {
			if cs.list[k].loc == loc {
				return &cs.list[k]
			}
		}
	} else {
		mask, h := cs.slot(loc)
		for ; cs.index[h] != 0; h = (h + 1) & mask {
			if c := &cs.list[cs.index[h]-1]; c.loc == loc {
				return c
			}
		}
	}
	c := cs.add(cell{loc: loc})
	if width <= fullCellWidth {
		cs.cover(c, 0, width, width)
	}
	return c
}

// add appends c, indexing the table once it outgrows a scan.
func (cs *Cells) add(c cell) *cell {
	cs.list = append(cs.list, c)
	n := len(cs.list)
	if n > cellScan && 4*n > 3*len(cs.index) {
		cs.index = make([]int32, 2*max(len(cs.index), cellScan))
		for k := range cs.list {
			cs.indexAdd(k)
		}
	} else if cs.index != nil {
		cs.indexAdd(n - 1)
	}
	return &cs.list[n-1]
}

// slot returns the index mask and loc's home slot (Fibonacci hashing).
func (cs *Cells) slot(loc event.Loc) (mask, h uint32) {
	shift := 32 - bits.TrailingZeros(uint(len(cs.index)))
	return uint32(len(cs.index) - 1), uint32(loc) * 0x9e3779b9 >> shift
}

// indexAdd files list slot k in the index.
func (cs *Cells) indexAdd(k int) {
	mask, h := cs.slot(cs.list[k].loc)
	for cs.index[h] != 0 {
		h = (h + 1) & mask
	}
	cs.index[h] = int32(k + 1)
}

// Record notes the access at trace index i and location loc, joining clk
// — the components of threads lo, lo+1, … of its time — into loc's cell of
// a width-thread detector. An access whose time is characterized by its
// own component (an HB access, a WCP access without fork/join ancestry)
// passes just that component; a WCP access recorded while its ancestry
// clock was active passes its whole effective time.
func (cs *Cells) Record(loc event.Loc, i, lo int, clk vc.VC, width int) {
	c := cs.at(loc, width)
	c.last = i
	if len(clk) == 0 {
		return
	}
	if k := lo - int(c.lo); k < 0 || k+len(clk) > int(c.n) {
		cs.cover(c, lo, lo+len(clk), width)
	}
	cs.window(c)[lo-int(c.lo):].Join(clk)
}

// Check records into rep a race between the access at trace index i and
// location loc and every cell with an access not ⊑ now, walking the cells in
// first-access order, and reports whether there was any. The distance is
// measured to the partner cell's most recent access.
func (cs *Cells) Check(rep *Report, now vc.VC, i int, loc event.Loc, ctx Ctx) bool {
	racy := false
	for k := range cs.list {
		if c := &cs.list[k]; !cs.window(c).Leq(now[c.lo:]) {
			racy = true
			rep.RecordCtx(c.loc, loc, i, i-c.last, ctx)
		}
	}
	return racy
}

// Bytes estimates the table's retained storage as its cells' records and
// clock windows. Like the per-cell charge it replaces, it leaves out the
// growth slack of the record list and the slab, and the location index
// (4–8 bytes a cell in tables past cellScan).
func (cs *Cells) Bytes() int {
	return len(cs.list)*int(unsafe.Sizeof(cell{})) + len(cs.clk)*4
}

// maxSnapCells bounds a decoded table against hostile payloads.
const maxSnapCells = 1 << 24

// EncodeSnapshot appends the table: its size, a presence flag, then each
// cell in increasing location order as its location (the first absolute,
// the rest as deltas), the index of its last access, and its clock as a
// sparse vector of the full width. tmp is scratch of that width.
func (cs *Cells) EncodeSnapshot(w *snap.Writer, tmp vc.VC) {
	w.Uvarint(uint64(len(cs.list)))
	w.Bool(len(cs.list) > 0)
	cells := slices.SortedFunc(slices.Values(cs.list), func(a, b cell) int { return cmp.Compare(a.loc, b.loc) })
	for j, c := range cells {
		if j == 0 {
			w.Int(int(c.loc))
		} else {
			w.Uvarint(uint64(c.loc - cells[j-1].loc))
		}
		w.Int(c.last)
		tmp.Zero()
		copy(tmp[c.lo:], cs.window(&c))
		w.Sparse(tmp)
	}
}

// DecodeCells decodes a table written by EncodeSnapshot for a detector of
// width len(tmp), using tmp as scratch. The restored cells are in location
// order, each window tight around its nonzero components; a table written
// with full joined vectors per cell restores to cells giving the same
// verdicts.
func DecodeCells(rd *snap.Reader, tmp vc.VC) (Cells, error) {
	var cs Cells
	n, err := rd.Count(maxSnapCells)
	if err != nil {
		return cs, err
	}
	present, err := rd.Bool()
	if err != nil {
		return cs, err
	}
	if present != (n > 0) {
		return cs, &snap.DecodeError{Reason: "cell table presence inconsistent with its size"}
	}
	width := len(tmp)
	loc := event.Loc(0)
	for i := 0; i < n; i++ {
		if i == 0 {
			v, err := rd.I32()
			if err != nil {
				return cs, err
			}
			loc = event.Loc(v)
		} else {
			d, err := rd.Uvarint()
			if err != nil {
				return cs, err
			}
			if d == 0 || d > uint64(math.MaxInt32-int64(loc)) {
				return cs, &snap.DecodeError{Reason: "cell locations not increasing within range"}
			}
			loc += event.Loc(d)
		}
		c := cell{loc: loc}
		if c.last, err = rd.Int(); err != nil {
			return cs, err
		}
		tmp.Zero()
		if err := rd.Sparse(tmp); err != nil {
			return cs, err
		}
		lo, hi := 0, width
		if width > fullCellWidth {
			for lo < hi && tmp[lo] == 0 {
				lo++
			}
			for hi > lo && tmp[hi-1] == 0 {
				hi--
			}
		}
		c.lo, c.n, c.off = int32(lo), int32(hi-lo), int32(len(cs.clk))
		cs.clk = append(cs.clk, tmp[lo:hi]...)
		cs.add(c)
	}
	return cs, nil
}
