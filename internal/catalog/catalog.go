// Package catalog provides the table catalog the analyzer resolves
// relations against, plus in-memory and CSV-backed table storage. It plays
// the role of Spark SQL's Catalog / Hive metastore in the paper's Figure 2.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"skysql/internal/storage"
	"skysql/internal/types"
)

// versionCounter issues table versions. It is process-global and strictly
// increasing, so a version is never reused — not even across a drop and
// re-register of the same name — which lets version-keyed consumers (plan
// sketches, the result cache) treat "version matches" as "same data".
var versionCounter atomic.Int64

// Table is a named relation with a schema and either materialized rows or
// a segment-backed store (exactly one of Rows / Segments is set). A
// segment-backed table holds no rows in memory: scans stream its segments
// (pruning against zone maps first) and statistics come from the
// persisted footers.
//
// Concurrency: Append and the Snapshot/SnapshotVersion readers are safe to
// interleave — the serving tier issues queries and appends against one
// table from many goroutines. Append never rewrites rows a previously
// taken snapshot can see (it extends the slice and swaps the header under
// the write lock), so a snapshot is immutable for as long as the caller
// holds it. Direct access to the Rows field remains for single-goroutine
// setup code (construction, loading, tests); execution paths go through
// Snapshot.
type Table struct {
	Name     string
	Schema   *types.Schema
	Rows     []types.Row
	Segments *storage.Store

	// mu guards Rows against concurrent Append. The version bump happens
	// inside the same critical section, so (rows, version) pairs read under
	// the lock are always consistent — the invariant the result cache's
	// store-time revalidation relies on.
	mu sync.RWMutex

	// version is the table's identity-over-time: bumped on creation, on
	// (re-)registration, on drop, and on every row append. Consumers that
	// key cached state on (table, version) — the scan's cost sketch, the
	// skyline result cache — are invalidated by construction when it moves.
	version atomic.Int64
}

// NewTable creates a table, validating that every column has a name no
// other column shares (column references resolve case-insensitively, so
// "a" and "A" are one name) and that each row fits the schema
// (types.Schema.CheckRow: width, kinds, NULL only in nullable columns).
// Rows needing an exact BIGINT↔DOUBLE conversion are stored as converted
// copies, in a copy of rows; the caller's rows are never written.
func NewTable(name string, schema *types.Schema, rows []types.Row) (*Table, error) {
	seen := make(map[string]bool, schema.Len())
	for i, f := range schema.Fields {
		key := strings.ToLower(f.Name)
		if key == "" {
			return nil, fmt.Errorf("catalog: column %d of table %q has an empty name", i, name)
		}
		if seen[key] {
			return nil, fmt.Errorf("catalog: table %q has two columns named %q", name, key)
		}
		seen[key] = true
	}
	rows, err := checkRows(schema, rows)
	if err != nil {
		return nil, fmt.Errorf("catalog: table %q: %w", name, err)
	}
	t := &Table{Name: strings.ToLower(name), Schema: schema, Rows: rows}
	t.bump()
	return t, nil
}

// NewSegmentTable creates a table backed by a segment store instead of
// materialized rows.
func NewSegmentTable(name string, store *storage.Store) *Table {
	t := &Table{Name: strings.ToLower(name), Schema: store.Schema(), Segments: store}
	t.bump()
	return t
}

// Version returns the table's current version. Zero means the table was
// built by hand (struct literal) and never registered; every constructor
// and catalog mutation path yields a positive version.
func (t *Table) Version() int64 { return t.version.Load() }

// bump advances the table to a fresh, globally unique version.
func (t *Table) bump() { t.version.Store(versionCounter.Add(1)) }

// Append adds rows to an in-memory table and bumps the table's version so
// version-keyed consumers see the change. The rows are checked as NewTable
// checks them; a batch with one row that does not fit appends nothing.
// It returns the rows as stored — converted copies where a value needed
// an exact BIGINT↔DOUBLE conversion — which is what version-keyed
// consumers must be told was appended. Segment-backed tables are immutable
// at this layer and refuse the append. Safe to call concurrently with
// Snapshot readers: rows visible to an existing snapshot are never
// rewritten, and the version moves inside the same critical section as the
// row swap.
func (t *Table) Append(rows ...types.Row) ([]types.Row, error) {
	if t.Segments != nil {
		return nil, fmt.Errorf("catalog: table %q is segment-backed; appends are not supported", t.Name)
	}
	rows, err := checkRows(t.Schema, rows)
	if err != nil {
		return nil, fmt.Errorf("catalog: append to table %q: %w", t.Name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Copy-on-grow append: extending within capacity only writes past the
	// length any earlier snapshot carries, so concurrent readers of old
	// snapshots never observe the new elements.
	t.Rows = append(t.Rows, rows...)
	t.bump()
	return rows, nil
}

// checkRows holds every row to the schema (types.Schema.CheckRow) and
// returns them as they are to be stored: rows itself when none needed a
// conversion, else a copy holding the converted rows.
func checkRows(schema *types.Schema, rows []types.Row) ([]types.Row, error) {
	var out []types.Row // nil until a row is converted
	for i, r := range rows {
		c, err := schema.CheckRow(r)
		if err != nil {
			return nil, fmt.Errorf("row %d %w", i, err)
		}
		if c == nil {
			continue
		}
		if out == nil {
			out = append([]types.Row(nil), rows...)
		}
		out[i] = c
	}
	if out == nil {
		return rows, nil
	}
	return out, nil
}

// Snapshot returns the table's current in-memory rows as an immutable
// slice: concurrent Appends extend past the returned length but never
// rewrite the rows it covers. Nil for segment-backed tables.
func (t *Table) Snapshot() []types.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.Rows
}

// SnapshotVersion returns the rows together with the version they belong
// to, as one consistent pair — an Append concurrent with this call is
// either entirely visible (its rows and its bump) or entirely not.
func (t *Table) SnapshotVersion() ([]types.Row, int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.Rows, t.version.Load()
}

// RowCount is the table's total row count — len(Rows) for in-memory
// tables, the summed footer counts for segment-backed ones (no decode).
func (t *Table) RowCount() int {
	if t.Segments != nil {
		return t.Segments.Rows()
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.Rows)
}

// Catalog maps table names to tables. It is safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// New creates an empty catalog.
func New() *Catalog { return &Catalog{tables: make(map[string]*Table)} }

// Register adds or replaces a table, bumping its version: registration is
// a visibility event, so anything cached against a pre-registration
// version of the same Table value is invalidated.
func (c *Catalog) Register(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t.bump()
	c.tables[strings.ToLower(t.Name)] = t
}

// Lookup finds a table by name.
func (c *Catalog) Lookup(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q not found", name)
	}
	return t, nil
}

// Drop removes a table; it is a no-op when absent. The dropped table's
// version is bumped so cached results keyed on its pre-drop version can
// never be served again, even if the same *Table value is re-registered.
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.tables[strings.ToLower(name)]; ok {
		t.bump()
	}
	delete(c.tables, strings.ToLower(name))
}

// Names returns the registered table names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
