package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestEveryExperimentRunsAtTinyScale executes every registered
// experiment (the 17 figures, fig3–fig19) end to end on miniature datasets
// — the smoke test that keeps the harness runnable as the engine evolves.
// Run with -short to skip.
func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is not short")
	}
	cfg := DefaultConfig()
	cfg.Scale = 0.005
	cfg.Timeout = 60 * time.Second
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(cfg, &buf); err != nil {
				t.Fatalf("%s: %v\noutput so far:\n%s", e.ID, err, buf.String())
			}
			out := buf.String()
			if !strings.Contains(out, "algorithm") {
				t.Errorf("%s produced no table:\n%s", e.ID, out)
			}
			if strings.Contains(out, "WARNING") {
				t.Errorf("%s: algorithms disagreed:\n%s", e.ID, out)
			}
			if strings.Contains(out, "err") && strings.Contains(out, "  err") {
				t.Errorf("%s: error cells present:\n%s", e.ID, out)
			}
		})
	}
}
