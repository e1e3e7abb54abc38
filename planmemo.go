package skysql

import (
	"sync"

	"skysql/internal/catalog"
	"skysql/internal/core"
	"skysql/internal/plan"
)

const (
	// planMemoSize is how many statements a session keeps compiled.
	planMemoSize = 64
	// planMemoMaxText is the longest statement kept: a request may carry
	// megabytes of SQL, and the memo must not hold on to them.
	planMemoMaxText = 4 << 10
)

// planMemo keeps the compiled form of the statements Session.SQL saw
// last, keyed by their exact text, so that a repeated statement skips
// parse, analysis, optimization and physical planning.
//
// A compiled plan is a function of the statement, the session's options
// (fixed at NewSession) and the tables it bound — their identity and, for
// the cost-based choices read at planning time, their contents. So a
// memoised plan is handed out only while every table it bound is still
// the object the catalog resolves that name to, at the version it had
// when the statement bound it (plan.Scan.Version): an append, a drop or a
// re-registration moves the version (catalog.Table.Version, never reused)
// and the statement compiles again, the argument that keeps result-cache
// keys fresh. Plans are immutable once compiled and are executed by any
// number of queries at once.
type planMemo struct {
	mu    sync.Mutex
	plans map[string]*memoPlan
}

type memoPlan struct {
	compiled *core.Compiled
	scans    []*plan.Scan // every table the statement bound
}

// get returns the memoised plan of text, or nil when there is none or a
// table it bound has changed since; the outdated plan is forgotten, so it
// does not pin a dropped table's rows.
func (m *planMemo) get(text string, cat *catalog.Catalog) *core.Compiled {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.plans[text]
	if p == nil {
		return nil
	}
	for _, s := range p.scans {
		if cur, err := cat.Lookup(s.Table.Name); err != nil || cur != s.Table || cur.Version() != s.Version {
			delete(m.plans, text)
			return nil
		}
	}
	return p.compiled
}

// put memoises c as the plan of text. A full memo first forgets one plan,
// whichever the map yields.
func (m *planMemo) put(text string, c *core.Compiled) {
	if len(text) > planMemoMaxText {
		return
	}
	p := &memoPlan{compiled: c}
	plan.Walk(c.Logical, func(n plan.Node) {
		if scan, ok := n.(*plan.Scan); ok {
			p.scans = append(p.scans, scan)
		}
	})
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.plans == nil {
		m.plans = make(map[string]*memoPlan, planMemoSize)
	}
	if _, replace := m.plans[text]; !replace && len(m.plans) >= planMemoSize {
		for victim := range m.plans {
			delete(m.plans, victim)
			break
		}
	}
	m.plans[text] = p
}
