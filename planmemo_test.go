package skysql

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func memoTable(t *testing.T, s *Session, name string, rows int) {
	t.Helper()
	schema := NewSchema(Field{Name: "id", Type: KindInt}, Field{Name: "x", Type: KindInt}, Field{Name: "y", Type: KindInt})
	data := make([]Row, rows)
	for i := range data {
		data[i] = Row{Int(int64(i)), Int(int64(i)), Int(int64(rows - i))}
	}
	if err := s.CreateTable(name, schema, data); err != nil {
		t.Fatal(err)
	}
}

// TestPlanMemoFollowsTheCatalog: a repeated statement gets the plan it
// compiled the first time, for exactly as long as the tables it bound are
// the catalog's, unchanged; an append, a replacement or a drop compiles
// again — over the table the name resolves to now.
func TestPlanMemoFollowsTheCatalog(t *testing.T) {
	s := NewSession(WithExecutors(2))
	defer s.Close()
	memoTable(t, s, "a", 10)
	memoTable(t, s, "b", 10)
	const q = "SELECT * FROM a SKYLINE OF x MIN, y MIN"
	plan := func(query string) *DataFrame {
		t.Helper()
		df, err := s.SQL(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		return df
	}
	first := plan(q)
	if again := plan(q); again.compiled != first.compiled {
		t.Fatal("the repeat of an unchanged statement compiled again")
	} else if again == first {
		t.Fatal("two calls must not share one DataFrame: metrics and duration are per run")
	}
	if other := plan("SELECT * FROM a SKYLINE OF y MIN, x MIN"); other.compiled == first.compiled {
		t.Fatal("the memo is keyed by statement text; a different text shared a plan")
	}

	// A change to a table the statement does not read leaves its plan alone.
	if err := s.AppendRows("b", []Row{{Int(99), Int(0), Int(0)}}); err != nil {
		t.Fatal(err)
	}
	if again := plan(q); again.compiled != first.compiled {
		t.Error("an append to another table made the statement compile again")
	}

	if err := s.AppendRows("a", []Row{{Int(99), Int(-1), Int(-1)}}); err != nil {
		t.Fatal(err)
	}
	afterAppend := plan(q)
	if afterAppend.compiled == first.compiled {
		t.Fatal("an append to the bound table must compile again: planning reads the table")
	}
	if rows, err := afterAppend.Collect(); err != nil || len(rows) != 1 || rows[0][0].AsInt() != 99 {
		t.Fatalf("after the append: %v, %v; want the one dominating row", rows, err)
	}
	if again := plan(q); again.compiled != afterAppend.compiled {
		t.Error("the recompiled plan must be memoised in turn")
	}

	memoTable(t, s, "a", 3) // replaces the table object under the same name
	replaced := plan(q)
	if replaced.compiled == afterAppend.compiled {
		t.Fatal("a replaced table must compile again")
	}
	if rows, err := replaced.Collect(); err != nil || len(rows) != 3 {
		t.Fatalf("after the replacement: %d rows, %v; want the new table's 3", len(rows), err)
	}

	s.DropTable("a")
	if _, err := s.SQL(q); err == nil {
		t.Fatal("a statement over a dropped table must fail, not run its memoised plan")
	}
	if _, held := s.plans.plans[q]; held {
		t.Error("the outdated plan must be forgotten, not left holding the dropped table")
	}
}

// TestPlanMemoIsBounded: the memo holds planMemoSize statements at most
// and none longer than planMemoMaxText, whatever a client sends.
func TestPlanMemoIsBounded(t *testing.T) {
	s := NewSession(WithExecutors(1))
	defer s.Close()
	memoTable(t, s, "a", 4)
	for i := 0; i < 3*planMemoSize; i++ {
		if _, err := s.SQL(fmt.Sprintf("SELECT * FROM a WHERE id <> %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.plans.plans); n != planMemoSize {
		t.Errorf("memo holds %d plans after %d statements, want %d", n, 3*planMemoSize, planMemoSize)
	}
	long := "SELECT * FROM a WHERE id <> 1" + strings.Repeat(" AND id <> 2", planMemoMaxText/12)
	if _, err := s.SQL(long); err != nil {
		t.Fatal(err)
	}
	if _, held := s.plans.plans[long]; held {
		t.Errorf("a %d-byte statement was memoised", len(long))
	}
}

// TestPlanMemoSharedPlanRunsConcurrently: one memoised plan executed by
// many goroutines at once (run under -race) answers each of them whole.
func TestPlanMemoSharedPlanRunsConcurrently(t *testing.T) {
	s := NewSession(WithExecutors(4), WithResultCache(0))
	defer s.Close()
	memoTable(t, s, "a", 500)
	const q = "SELECT id FROM a WHERE x >= 100 SKYLINE OF x MIN, y MIN"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				rows, err := s.Query(q)
				if err != nil || len(rows) != 400 {
					t.Errorf("%d rows, %v; want 400", len(rows), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
