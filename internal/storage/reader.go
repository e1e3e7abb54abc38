package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

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

// Reader is the one page reader of a segment. It serves three outputs
// from the same verified pages: dense float64 columns (Numeric), boxed
// values by row number (Box for whole rows, Values for some columns one
// row at a time), and — the all-rows case of Box — Segment.Decode. A page
// is read and checked against its CRC the first time any caller needs it
// and is shared from then on, so the morsels of one segment read each page
// once, and a page no caller needs is never read. Safe for concurrent use.
type Reader struct {
	footer *Footer
	path   string
	data   []byte // the whole segment, when it is in memory
	charge func(delta int64)

	mu    sync.Mutex
	f     *os.File
	pages []*page
	held  int64
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

// Close drops every page the reader holds and closes its file. The
// reader must not be used afterwards.
func (r *Reader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pages = nil
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
		buf = make([]byte, ref.len)
		if _, err := r.f.ReadAt(buf, ref.off); err != nil {
			if errors.Is(err, io.EOF) {
				return nil, errCorrupt("column %d page truncated", col)
			}
			return nil, fmt.Errorf("storage: read segment: %w", err)
		}
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
