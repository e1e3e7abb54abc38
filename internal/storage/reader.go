package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"

	"skysql/internal/expr"
	"skysql/internal/types"
)

// Sel names the rows of a segment one read serves: Lo+Idx[k] for each k,
// or every row of [Lo, Hi) when Idx is nil.
type Sel struct {
	Lo, Hi int
	Idx    []int
}

// Len is the number of rows the selection names.
func (s Sel) Len() int {
	if s.Idx != nil {
		return len(s.Idx)
	}
	return s.Hi - s.Lo
}

// Row is the segment row number of the k-th selected row.
func (s Sel) Row(k int) int {
	if s.Idx != nil {
		return s.Lo + s.Idx[k]
	}
	return s.Lo + k
}

// Reader is the one page reader of a segment. It serves its outputs from
// the same verified pages, in place: selections narrowed by comparing a
// column with a constant (Filter), numeric columns written straight into
// a caller's row-major storage (Gather), dense float64 columns (Numeric),
// boxed values by row number (Box for whole rows, Values for some columns
// one row at a time), and — the all-rows case of Box — Segment.Decode. A
// page is read and checked against its CRC the first time any caller
// needs it and is shared from then on, so the morsels of one segment read
// each page once, and a page no caller needs is never read. Safe for
// concurrent use.
//
// A file-backed reader reads its pages into buffers taken from a
// package-level pool and gives them back at Close, so a scan that runs
// again reads into the buffers the last one released instead of
// allocating (and zeroing) fresh ones. No output of a reader aliases a
// buffer: everything it returns is copied out of the pages. The caller
// must therefore guarantee only that nothing reads through the reader
// once Close has been called.
type Reader struct {
	footer *Footer
	path   string
	data   []byte // the whole segment, when it is in memory
	charge func(delta int64)

	mu    sync.Mutex
	f     *os.File
	pages []*page
	bufs  []*[]byte // the pooled buffers the pages of a file-backed reader live in
	held  int64
}

// bufPools recycles page read buffers. Pool k holds buffers whose length
// has bit length k, so a request only ever meets buffers within a factor
// of two of its size; one too small for the request is dropped, and the
// pool converges on the largest page of its class — in practice every
// numeric page of a full segment has the same size.
var bufPools [64]sync.Pool

// poisonBuffers makes Close overwrite every buffer it returns to the
// pool (SetBufferPoison).
var poisonBuffers atomic.Bool

// SetBufferPoison makes every reader overwrite its page buffers as it
// returns them to the pool, so that a page read through a closed reader
// fails its checksum or yields a wrong row instead of going unnoticed. It
// is a test hook: poisoning costs a pass over every buffer released.
func SetBufferPoison(on bool) { poisonBuffers.Store(on) }

// takeBuffer returns a buffer of n bytes from the pool, or a fresh one.
func takeBuffer(n int64) *[]byte {
	pool := &bufPools[bits.Len64(uint64(n))]
	if b, ok := pool.Get().(*[]byte); ok && int64(cap(*b)) >= n {
		*b = (*b)[:n]
		return b
	}
	b := make([]byte, n)
	return &b
}

// releaseBuffer returns a buffer to the pool.
func releaseBuffer(b *[]byte) {
	if poisonBuffers.Load() {
		for i := range *b {
			(*b)[i] = 0xA5
		}
	}
	bufPools[bits.Len64(uint64(len(*b)))].Put(b)
}

// NewReader opens a reader over the segment's pages. Nothing is read
// until a column is asked for. charge, when non-nil, is told of every
// read buffer the reader comes to hold (a positive delta) and of their
// release at Close (the negative sum); pages of an in-memory segment are
// not copied and not charged.
func (s *Segment) NewReader(charge func(delta int64)) *Reader {
	return &Reader{footer: &s.Footer, path: s.Path, data: s.data, charge: charge,
		pages: make([]*page, len(s.Footer.Cols))}
}

// Close drops every page the reader holds, returns their buffers to the
// pool and closes its file. The reader must not be used afterwards, and
// nothing may still be reading through it: the buffers go to the next
// reader that needs them.
func (r *Reader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pages = nil
	for _, b := range r.bufs {
		releaseBuffer(b)
	}
	r.bufs = nil
	if r.held > 0 && r.charge != nil {
		r.charge(-r.held)
	}
	r.held = 0
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// page returns column col's verified page, reading it on first use.
func (r *Reader) page(col int) (*page, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if col < 0 || col >= len(r.pages) {
		return nil, fmt.Errorf("storage: column %d of a %d-column segment", col, len(r.pages))
	}
	if pg := r.pages[col]; pg != nil {
		return pg, nil
	}
	ref := r.footer.pages[col]
	var buf []byte
	if r.data != nil {
		if ref.off+ref.len > int64(len(r.data)) {
			return nil, errCorrupt("column %d page past the end of the segment", col)
		}
		buf = r.data[ref.off : ref.off+ref.len]
	} else {
		if r.f == nil {
			f, err := os.Open(r.path)
			if err != nil {
				return nil, fmt.Errorf("storage: read segment: %w", err)
			}
			r.f = f
		}
		b := takeBuffer(ref.len)
		if _, err := r.f.ReadAt(*b, ref.off); err != nil {
			releaseBuffer(b)
			if errors.Is(err, io.EOF) {
				return nil, errCorrupt("column %d page truncated", col)
			}
			return nil, fmt.Errorf("storage: read segment: %w", err)
		}
		buf = *b
		r.bufs = append(r.bufs, b)
		r.held += ref.len
		if r.charge != nil {
			r.charge(ref.len)
		}
	}
	if crc32.Checksum(buf, castagnoli) != ref.crc {
		return nil, errCorrupt("column %d page checksum mismatch", col)
	}
	pg, err := parsePage(ref.enc, buf, r.footer.Rows)
	if err != nil {
		return nil, err
	}
	r.pages[col] = pg
	return pg, nil
}

// Numeric reads column col at the selected rows as a dense float64
// column under the vectorized engine's exactness rules. ok=false (with a
// nil error) when the column cannot be served that way at those rows:
// its page holds strings or bools, or an integer beyond ±2⁵³. NaN is
// returned as is; nulls is nil when no selected row is NULL.
func (r *Reader) Numeric(col int, sel Sel) (vals []float64, nulls []bool, ok bool, err error) {
	pg, err := r.page(col)
	if err != nil {
		return nil, nil, false, err
	}
	vals, nulls, ok = pg.numeric(sel)
	return vals, nulls, ok, nil
}

// Filter narrows sel to the rows where column col compares to the
// constant c under op (one of the six comparisons), reading the page in
// place. The rules are the vectorized engine's against a constant: NULL
// fails, NaN sorts below every number (so it passes <, <= and <>), and -0
// equals +0. c must not be NaN. ok=false (with a nil error) when the
// column cannot be served exactly at the selected rows — Numeric's
// refusals. The result may reuse sel.Idx, so sel must not be used again.
func (r *Reader) Filter(col int, op expr.BinaryOp, c float64, sel Sel) (out Sel, ok bool, err error) {
	pg, err := r.page(col)
	if err != nil {
		return Sel{}, false, err
	}
	idx := sel.Idx[:0]
	if sel.Idx == nil {
		idx = make([]int, 0, sel.Len())
	}
	if idx, ok = pg.filter(newCmpMask(op), c, sel, idx); !ok {
		return Sel{}, false, nil
	}
	return Sel{Lo: sel.Lo, Hi: sel.Hi, Idx: idx}, true, nil
}

// Gather writes column col at the selected rows as float64 into a
// caller's row-major storage: the k-th selected row's value goes to
// dst[k*stride], negated when negate is set, except for NULL rows, whose
// slots are left untouched and whose positions k are returned in
// increasing order (nil when there are none). NaN is written as is.
// ok=false (with a nil error) on Numeric's refusals; dst may then be
// partly written.
func (r *Reader) Gather(col int, sel Sel, dst []float64, stride int, negate bool) (nulls []int, ok bool, err error) {
	pg, err := r.page(col)
	if err != nil {
		return nil, false, err
	}
	nulls, ok = pg.gather(sel, dst, stride, negate)
	return nulls, ok, nil
}

// Values gives row-at-a-time access to some columns at the selected rows:
// at(k, dst) writes the values of the k-th selected row, one per column in
// cols order, into dst — the values Box puts in those columns — so a
// caller that keeps few of the rows never boxes the rest. Every page is
// read and verified before Values returns.
func (r *Reader) Values(cols []int, sel Sel) (at func(k int, dst types.Row), err error) {
	pages := make([]*page, len(cols))
	for d, col := range cols {
		if pages[d], err = r.page(col); err != nil {
			return nil, err
		}
	}
	return func(k int, dst types.Row) {
		i := sel.Row(k)
		for d, pg := range pages {
			dst[d] = pg.value(i)
		}
	}, nil
}

// Box materializes the selected rows with every column, bit-identical to
// the rows the segment was encoded from.
func (r *Reader) Box(sel Sel) ([]types.Row, error) {
	width := len(r.footer.Cols)
	// Every page is verified before the rows are allocated, so a damaged
	// segment fails without paying for them.
	pages := make([]*page, width)
	for col := range pages {
		pg, err := r.page(col)
		if err != nil {
			return nil, err
		}
		pages[col] = pg
	}
	n := sel.Len()
	backing := make([]types.Value, n*width)
	for col, pg := range pages {
		pg.box(sel, backing, col, width)
	}
	out := make([]types.Row, n)
	for k := range out {
		out[k] = types.Row(backing[k*width : (k+1)*width : (k+1)*width])
	}
	return out, nil
}
