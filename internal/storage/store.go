package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"skysql/internal/cost"
	"skysql/internal/types"
)

// Segment is one immutable serialized run of rows. It is backed either
// by a file (Path set) or by an in-memory buffer (data set) — the two
// are interchangeable to every consumer, which is what lets tests and
// the bench harness exercise the segment path without a scratch
// directory.
type Segment struct {
	Path   string
	Footer Footer

	data []byte
}

// Rows reports the segment's row count from the footer alone.
func (s *Segment) Rows() int { return s.Footer.Rows }

// Sketch is the segment-local zone map as a cost sketch — the input to
// cost.ProvablyEmpty when the pruner tests a filter predicate against
// this segment.
func (s *Segment) Sketch() *cost.Table { return s.Footer.Sketch() }

// Decode materializes the segment's rows, bit-identical to the rows it
// was encoded from. It reads the whole segment in one go and verifies all
// of it — header, footer and every page — against the bytes it read, not
// against the footer the segment was opened with.
func (s *Segment) Decode() ([]types.Row, error) {
	data := s.data
	if data == nil {
		b, err := os.ReadFile(s.Path)
		if err != nil {
			return nil, fmt.Errorf("storage: read segment: %w", err)
		}
		data = b
	}
	footer, err := footerOf(data)
	if err != nil {
		return nil, err
	}
	r := (&Segment{Footer: footer, data: data}).NewReader(nil)
	defer r.Close()
	return r.Box(Sel{Hi: footer.Rows})
}

// Remove deletes a file-backed segment (spill segments are transient).
// In-memory segments just drop their buffer.
func (s *Segment) Remove() error {
	s.data = nil
	if s.Path == "" {
		return nil
	}
	return os.Remove(s.Path)
}

// Store is an ordered list of segments plus the schema they share — the
// segment-backed stand-in for a table's materialized row slice.
type Store struct {
	schema *types.Schema
	segs   []*Segment

	sketchOnce sync.Once
	sketch     *cost.Table
}

// Schema returns the shared schema of the store's segments.
func (st *Store) Schema() *types.Schema { return st.schema }

// Segments returns the ordered segment list.
func (st *Store) Segments() []*Segment { return st.segs }

// Rows is the total row count across all segments, read from footers.
func (st *Store) Rows() int {
	n := 0
	for _, s := range st.segs {
		n += s.Footer.Rows
	}
	return n
}

// Sketch merges the per-segment zone maps into one store-level cost
// sketch; computed once, from footers only.
func (st *Store) Sketch() *cost.Table {
	st.sketchOnce.Do(func() {
		footers := make([]*Footer, len(st.segs))
		for i, s := range st.segs {
			footers[i] = &s.Footer
		}
		st.sketch = MergeStats(footers, st.schema.Len())
	})
	return st.sketch
}

// Decode materializes every segment in order — the whole table as rows.
func (st *Store) Decode() ([]types.Row, error) {
	out := make([]types.Row, 0, st.Rows())
	for _, s := range st.segs {
		rows, err := s.Decode()
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// Writer streams rows into a store one bounded segment at a time, so a
// dataset larger than memory is written with only one segment's rows
// resident. Dir == "" keeps segments in memory.
type Writer struct {
	schema  *types.Schema
	dir     string
	name    string
	segRows int
	buf     []types.Row
	segs    []*Segment
	seq     int
	err     error
}

// NewWriter creates a segment writer for the given schema. name prefixes
// the segment files (`name-00000.seg`); segRows <= 0 means
// DefaultSegmentRows.
func NewWriter(schema *types.Schema, dir, name string, segRows int) *Writer {
	if segRows <= 0 {
		segRows = DefaultSegmentRows
	}
	if name == "" {
		name = "table"
	}
	return &Writer{schema: schema, dir: dir, name: name, segRows: segRows}
}

// Append buffers one row, flushing a segment when the bound fills.
func (w *Writer) Append(row types.Row) error {
	if w.err != nil {
		return w.err
	}
	w.buf = append(w.buf, row)
	if len(w.buf) >= w.segRows {
		w.err = w.flush()
	}
	return w.err
}

func (w *Writer) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	data, footer, err := encodeSegment(w.buf, w.schema)
	if err != nil {
		return err
	}
	seg := &Segment{Footer: footer}
	if w.dir == "" {
		seg.data = data
	} else {
		seg.Path = filepath.Join(w.dir, fmt.Sprintf("%s-%05d.seg", w.name, w.seq))
		if err := os.WriteFile(seg.Path, data, 0o644); err != nil {
			return fmt.Errorf("storage: write segment: %w", err)
		}
	}
	w.seq++
	w.segs = append(w.segs, seg)
	w.buf = w.buf[:0]
	return nil
}

// Close flushes the final partial segment and returns the store.
func (w *Writer) Close() (*Store, error) {
	if w.err != nil {
		return nil, w.err
	}
	if err := w.flush(); err != nil {
		return nil, err
	}
	return &Store{schema: w.schema, segs: w.segs}, nil
}

// FromRows encodes an in-memory row slice into a segment store. Dir ==
// "" keeps the segments in memory.
func FromRows(rows []types.Row, schema *types.Schema, dir, name string, segRows int) (*Store, error) {
	w := NewWriter(schema, dir, name, segRows)
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			return nil, err
		}
	}
	return w.Close()
}

// OpenDir opens every `*.seg` file under dir (sorted by name, which is
// write order) reading footers only — no page is decoded until a scan
// survives pruning. All segments must share one schema.
func OpenDir(dir string) (*Store, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: open segment dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("storage: no .seg files in %s", dir)
	}
	sort.Strings(names)
	st := &Store{}
	for _, n := range names {
		path := filepath.Join(dir, n)
		footer, err := readFooterFile(path)
		if err != nil {
			return nil, fmt.Errorf("storage: %s: %w", n, err)
		}
		seg := &Segment{Path: path, Footer: footer}
		if st.schema == nil {
			st.schema = footer.Schema()
		} else if !sameSchema(st.schema, footer.Schema()) {
			return nil, fmt.Errorf("storage: %s: schema differs from first segment", n)
		}
		st.segs = append(st.segs, seg)
	}
	return st, nil
}

// readFooterFile reads and verifies the header and footer of a segment
// file without touching a page: the tail gives the footer length and
// checksum, two more reads fetch the header and the footer itself.
func readFooterFile(path string) (Footer, error) {
	f, err := os.Open(path)
	if err != nil {
		return Footer{}, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return Footer{}, err
	}
	if size < headerLen+tailLen {
		return Footer{}, errCorrupt("%d bytes is too short for a segment", size)
	}
	head := make([]byte, headerLen)
	if _, err := f.ReadAt(head, 0); err != nil {
		return Footer{}, err
	}
	if err := checkMagic(head); err != nil {
		return Footer{}, err
	}
	tail := make([]byte, tailLen)
	if _, err := f.ReadAt(tail, size-tailLen); err != nil {
		return Footer{}, err
	}
	if string(tail[8:]) != tailMagic {
		return Footer{}, errCorrupt("bad tail magic")
	}
	end := size - tailLen
	flen := int64(binary.LittleEndian.Uint32(tail[4:]))
	if flen > end-headerLen {
		return Footer{}, errCorrupt("footer length out of range")
	}
	foot := make([]byte, flen)
	if _, err := f.ReadAt(foot, end-flen); err != nil {
		return Footer{}, err
	}
	return parseSegmentFooter(head, foot, binary.LittleEndian.Uint32(tail), end-flen-headerLen)
}

func sameSchema(a, b *types.Schema) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i].Name != b.Fields[i].Name {
			return false
		}
	}
	return true
}

// SpillSegment writes one anonymous temporary segment under dir — the
// memory governor's spill tier. The caller owns removal.
func SpillSegment(dir string, rows []types.Row, schema *types.Schema) (*Segment, error) {
	data, footer, err := encodeSegment(rows, schema)
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "spill-*.seg")
	if err != nil {
		return nil, fmt.Errorf("storage: create spill segment: %w", err)
	}
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(f.Name())
		if werr != nil {
			return nil, fmt.Errorf("storage: write spill segment: %w", werr)
		}
		return nil, fmt.Errorf("storage: close spill segment: %w", cerr)
	}
	return &Segment{Path: f.Name(), Footer: footer}, nil
}
