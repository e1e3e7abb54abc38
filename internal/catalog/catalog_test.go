package catalog

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"skysql/internal/storage"
	"skysql/internal/types"
)

func hotelSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "id", Type: types.KindInt},
		types.Field{Name: "price", Type: types.KindFloat},
		types.Field{Name: "rating", Type: types.KindInt},
	)
}

func TestNewTableValidatesWidth(t *testing.T) {
	_, err := NewTable("h", hotelSchema(), []types.Row{{types.Int(1)}})
	if err == nil {
		t.Fatal("short row must be rejected")
	}
	tab, err := NewTable("H", hotelSchema(), []types.Row{
		{types.Int(1), types.Float(50), types.Int(7)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name != "h" {
		t.Error("table names must be lower-cased")
	}
}

func TestCatalogRegisterLookupDrop(t *testing.T) {
	c := New()
	tab, _ := NewTable("hotels", hotelSchema(), nil)
	c.Register(tab)
	got, err := c.Lookup("HOTELS")
	if err != nil || got != tab {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	if _, err := c.Lookup("missing"); err == nil {
		t.Error("missing table must error")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "hotels" {
		t.Errorf("Names = %v", names)
	}
	c.Drop("hotels")
	if _, err := c.Lookup("hotels"); err == nil {
		t.Error("dropped table must be gone")
	}
	c.Drop("hotels") // idempotent
}

func TestTableVersionLifecycle(t *testing.T) {
	tab, err := NewTable("h", hotelSchema(), []types.Row{
		{types.Int(1), types.Float(50), types.Int(7)},
	})
	if err != nil {
		t.Fatal(err)
	}
	v0 := tab.Version()
	if v0 <= 0 {
		t.Fatalf("NewTable must assign a positive version, got %d", v0)
	}
	c := New()
	c.Register(tab)
	v1 := tab.Version()
	if v1 <= v0 {
		t.Errorf("Register must bump the version: %d -> %d", v0, v1)
	}
	if _, err := tab.Append(types.Row{types.Int(2), types.Float(60), types.Int(8)}); err != nil {
		t.Fatal(err)
	}
	v2 := tab.Version()
	if v2 <= v1 {
		t.Errorf("Append must bump the version: %d -> %d", v1, v2)
	}
	if len(tab.Rows) != 2 {
		t.Errorf("appended rows = %d, want 2", len(tab.Rows))
	}
	c.Drop("h")
	v3 := tab.Version()
	if v3 <= v2 {
		t.Errorf("Drop must bump the dropped table's version: %d -> %d", v2, v3)
	}
	// Versions are globally unique: a second table never reuses one.
	other, _ := NewTable("g", hotelSchema(), nil)
	if other.Version() <= v3 {
		t.Errorf("versions must be globally monotonic: %d after %d", other.Version(), v3)
	}
	// A struct-literal table starts at zero until registered.
	bare := &Table{Name: "bare", Schema: hotelSchema()}
	if bare.Version() != 0 {
		t.Errorf("unregistered literal table version = %d, want 0", bare.Version())
	}
	c.Register(bare)
	if bare.Version() <= 0 {
		t.Error("registration must assign a real version to a literal table")
	}
}

func TestTableAppendValidation(t *testing.T) {
	tab, _ := NewTable("h", hotelSchema(), nil)
	v := tab.Version()
	if _, err := tab.Append(types.Row{types.Int(1)}); err == nil {
		t.Error("short appended row must be rejected")
	}
	if tab.Version() != v || len(tab.Rows) != 0 {
		t.Error("failed append must not change the table")
	}
}

func TestSegmentTableRefusesAppend(t *testing.T) {
	store, err := storage.FromRows([]types.Row{
		{types.Int(1), types.Float(50), types.Int(7)},
	}, hotelSchema(), "", "h", 10)
	if err != nil {
		t.Fatal(err)
	}
	tab := NewSegmentTable("h", store)
	if tab.Version() <= 0 {
		t.Error("NewSegmentTable must assign a version")
	}
	if _, err := tab.Append(types.Row{types.Int(2), types.Float(60), types.Int(8)}); err == nil {
		t.Error("segment-backed table must refuse appends")
	}
}

// TestRowsCheckedAgainstSchema: NewTable and Append store only rows that
// fit the schema — a refused batch appends nothing — and convert BIGINT
// and DOUBLE into each other's columns exactly, on copies: the caller's
// rows and row slice are left as they came.
func TestRowsCheckedAgainstSchema(t *testing.T) {
	schema := hotelSchema() // id BIGINT, price DOUBLE, rating BIGINT, all NOT NULL
	for _, bad := range []types.Row{
		{types.Float(1.5), types.Float(50), types.Int(7)},
		{types.Float(1 << 54), types.Float(50), types.Int(7)},
		{types.Int(1), types.Int(1<<53 + 1), types.Int(7)},
		{types.Int(1), types.Null, types.Int(7)},
		{types.Int(1), types.Str("x"), types.Int(7)},
		{types.Int(1), types.Float(50), types.Bool(true)},
	} {
		if _, err := NewTable("h", schema, []types.Row{bad}); err == nil {
			t.Errorf("NewTable stored %v", bad)
		}
		tab, _ := NewTable("h", schema, nil)
		v := tab.Version()
		if _, err := tab.Append(types.Row{types.Int(1), types.Float(50), types.Int(7)}, bad); err == nil || tab.Version() != v || len(tab.Rows) != 0 {
			t.Errorf("Append of %v: err=%v, %d rows stored", bad, err, len(tab.Rows))
		}
	}

	in := []types.Row{{types.Float(2), types.Int(60), types.Float(-8)}, {types.Int(3), types.Float(70), types.Int(9)}}
	tab, err := NewTable("h", schema, in)
	if err != nil {
		t.Fatal(err)
	}
	if in[0][0].Kind() != types.KindFloat || in[0][1].Kind() != types.KindInt {
		t.Fatalf("NewTable converted the caller's row in place: %v", in[0])
	}
	if tab.Rows[1][0] != in[1][0] || fmt.Sprint(tab.Rows[0]) != "[2 | 60 | -8]" || tab.Rows[0][0].Kind() != types.KindInt ||
		tab.Rows[0][1].Kind() != types.KindFloat || tab.Rows[0][2].Kind() != types.KindInt {
		t.Fatalf("stored rows %v, want the first converted and the second as given", tab.Rows)
	}
	stored, err := tab.Append(in...)
	if err != nil || in[0][0].Kind() != types.KindFloat || fmt.Sprint(stored) != fmt.Sprint(tab.Rows[2:]) || stored[0][0].Kind() != types.KindInt {
		t.Fatalf("Append: err=%v, returned %v, stored %v, caller's row %v", err, stored, tab.Rows[2:], in[0])
	}

	open := types.NewSchema(types.Field{Name: "x", Type: types.KindFloat, Nullable: true}, types.Field{Name: "y"})
	if _, err := NewTable("o", open, []types.Row{{types.Null, types.Str("any")}, {types.Float(1), types.Int(2)}}); err != nil {
		t.Errorf("nullable and untyped columns: %v", err)
	}
	if _, err := NewTable("o", open, []types.Row{{types.Float(1), types.Null}}); err == nil {
		t.Error("an untyped NOT NULL column stored a NULL")
	}
}

func TestReadCSV(t *testing.T) {
	src := "id,price,rating\n1,50.5,7\n2,,9\n3,NULL,8\n"
	tab, err := ReadCSV("hotels", strings.NewReader(src),
		[]types.Kind{types.KindInt, types.KindFloat, types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !tab.Rows[1][1].IsNull() || !tab.Rows[2][1].IsNull() {
		t.Error("empty and NULL cells must parse as NULL")
	}
	if !tab.Schema.Fields[1].Nullable {
		t.Error("nullable flag must be inferred during load")
	}
	if tab.Schema.Fields[0].Nullable {
		t.Error("id must not be nullable")
	}
	if tab.Rows[0][1].AsFloat() != 50.5 {
		t.Error("float cell parsed wrong")
	}
}

func TestReadCSVIntegerValuedFloats(t *testing.T) {
	src := "n\n3.0\n"
	tab, err := ReadCSV("t", strings.NewReader(src), []types.Kind{types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][0].AsInt() != 3 {
		t.Error("3.0 must load as BIGINT 3")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader(""), nil); err == nil {
		t.Error("empty input must error")
	}
	if _, err := ReadCSV("t", strings.NewReader("a,b\n1,2\n"), []types.Kind{types.KindInt}); err == nil {
		t.Error("kind/width mismatch must error")
	}
	if _, err := ReadCSV("t", strings.NewReader("a\nxyz\n"), []types.Kind{types.KindInt}); err == nil {
		t.Error("bad integer must error")
	}
	if _, err := ReadCSV("t", strings.NewReader("a\nxyz\n"), []types.Kind{types.KindBool}); err == nil {
		t.Error("bad boolean must error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	schema := hotelSchema()
	schema.Fields[1].Nullable, schema.Fields[2].Nullable = true, true
	tab, err := NewTable("h", schema, []types.Row{
		{types.Int(1), types.Float(50), types.Null},
		{types.Int(2), types.Null, types.Int(9)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("h", &buf, []types.Kind{types.KindInt, types.KindFloat, types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 2 {
		t.Fatalf("round trip rows = %d", len(back.Rows))
	}
	if !back.Rows[0][2].IsNull() || !back.Rows[1][1].IsNull() {
		t.Error("NULLs must survive the round trip")
	}
	if back.Rows[1][2].AsInt() != 9 {
		t.Error("values must survive the round trip")
	}
}

// TestConcurrentAppendSnapshot hammers one table with appenders and
// snapshot readers (run under -race): versions observed per reader are
// monotonic, every (rows, version) pair is internally consistent (the row
// count a version implies never shrinks when the version grows), and no
// reader ever observes a torn row.
func TestConcurrentAppendSnapshot(t *testing.T) {
	tab, err := NewTable("h", hotelSchema(), []types.Row{
		{types.Int(0), types.Float(1), types.Int(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		appenders = 4
		perApp    = 200
		readers   = 4
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, appenders+readers)

	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perApp; i++ {
				r := types.Row{types.Int(int64(a*perApp + i)), types.Float(float64(i)), types.Int(int64(a))}
				if _, err := tab.Append(r); err != nil {
					errs <- err
					return
				}
			}
		}(a)
	}

	type obs struct {
		rows    int
		version int64
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last obs
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, v := tab.SnapshotVersion()
				cur := obs{len(rows), v}
				if cur.version < last.version {
					errs <- fmt.Errorf("version went backwards: %d after %d", cur.version, last.version)
					return
				}
				if cur.version == last.version && cur.rows != last.rows {
					errs <- fmt.Errorf("same version %d with different row counts %d vs %d (torn pair)",
						cur.version, last.rows, cur.rows)
					return
				}
				if cur.rows < last.rows {
					errs <- fmt.Errorf("row count shrank under append-only load: %d after %d", cur.rows, last.rows)
					return
				}
				// Every visible row must be fully formed: the swap under the
				// write lock never exposes a partially written row.
				for i, row := range rows {
					if len(row) != 3 {
						errs <- fmt.Errorf("torn row %d: width %d", i, len(row))
						return
					}
				}
				last = cur
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Appenders finish on their own; readers spin until told to stop.
	for {
		select {
		case err := <-errs:
			close(stop)
			t.Fatal(err)
		default:
		}
		if tab.RowCount() == 1+appenders*perApp {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := len(tab.Snapshot()); got != 1+appenders*perApp {
		t.Fatalf("final rows = %d, want %d", got, 1+appenders*perApp)
	}
}
