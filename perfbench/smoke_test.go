package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ediflow/internal/types"
)

// The smoke tests run each workload at a tiny size through the same
// code the benchmark runs, then break the state behind the program's
// back and require the workload's correctness check to notice.

func tinyFig8() fig8Config {
	return fig8Config{Window: 60, Batch: 5, MaintEvery: 4, Deadline: 2 * time.Second}
}

func tinyFirehose() firehoseConfig {
	return firehoseConfig{Rate: 2000, Batch: 16, Live: 400, Entities: 8, UpdateEvery: 2, DeleteEvery: 3, MaintEvery: 20, AckEvery: 4}
}

func tinyBrush() brushConfig {
	return brushConfig{Rows: 3000, VMax: 10000, Groups: 8, Brush: 0.1, Detail: 50, WriteRate: 100, MaintEvery: 5}
}

func smokeOpts(t *testing.T, trace bool) runOpts {
	return runOpts{seed: 7, seconds: 600 * time.Millisecond, trace: trace, dir: t.TempDir(), setups: 2}
}

// requireClean checks a report the way main does and returns its result.
func requireClean(t *testing.T, r *report, traced bool) result {
	t.Helper()
	res, err := buildResult(r, traced)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Fatalf("result %+v, failed checks %v", res, r.checkErrs)
	}
	return res
}

func TestSmokeFig8(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r, err := runFig8(tinyFig8(), smokeOpts(t, traced))
		if err != nil {
			t.Fatal(err)
		}
		res := requireClean(t, r, traced)
		if traced && (res.Metrics["vis.write_ms"].Value <= 0 || res.Metrics["tablesync.refresh_ms"].Value <= 0) {
			t.Fatalf("traced fig8 run measured no vis or tablesync time: %v", res.Metrics)
		}
	}
}

func TestFig8CheckDetectsDivergence(t *testing.T) {
	f, err := setupFig8(filepath.Join(t.TempDir(), "db"), tinyFig8(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	c := newClock()
	for op := int64(1); op <= 20; op++ { // past the point where the window is full
		res, err := f.cycle(c, nil, op)
		if err != nil {
			t.Fatal(err)
		}
		if res.checkErr != "" || res.missed {
			t.Fatalf("cycle %d: check %q, missed NOTIFY %v", op, res.checkErr, res.missed)
		}
	}
	if err := f.check(); err != nil {
		t.Fatalf("clean chain failed its check: %v", err)
	}
	// A visual attribute the display never heard of: its mirror still
	// equals the table, but the component no longer holds the window.
	if _, err := f.db.Exec("DELETE FROM ef_visual_attributes WHERE obj_id = ?", types.NewInt(f.oldest)); err != nil {
		t.Fatal(err)
	}
	if err := f.check(); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("check after removing a live object: %v", err)
	}
}

func TestSmokeFirehose(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r, err := runFirehose(tinyFirehose(), smokeOpts(t, traced))
		if err != nil {
			t.Fatal(err)
		}
		res := requireClean(t, r, traced)
		if traced && res.Metrics["engine.insert_batch_ms"].Value <= 0 {
			t.Fatalf("traced firehose run measured no insert time: %v", res.Metrics)
		}
	}
}

func TestFirehoseCheckDetectsDivergence(t *testing.T) {
	c := newClock()
	f, err := setupFirehose(filepath.Join(t.TempDir(), "db"), tinyFirehose(), 3, c)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	m := newMaint(c, func() error { _, err := f.notifier.Purge(); return err }, f.db.Checkpoint)
	ph := &fhPhase{}
	var sent, batch int64
	if err := f.generate(c, m, false, c.now(), &sent, &batch, c.now()+200*time.Millisecond, ph); err != nil {
		t.Fatal(err)
	}
	if err := f.check(0); err != nil {
		t.Fatalf("clean firehose failed its check: %v", err)
	}
	// A row the generator does not know was deleted.
	if _, err := f.db.Exec("DELETE FROM fh_edits WHERE id = ?", types.NewInt(f.next-1)); err != nil {
		t.Fatal(err)
	}
	if err := f.check(0); err == nil {
		t.Fatal("check missed a row deleted behind the generator's back")
	}
	if multisetKey([]types.Row{{types.NewInt(1)}}) == multisetKey([]types.Row{{types.NewInt(2)}}) {
		t.Fatal("multisetKey must tell different views apart")
	}
}

func TestSmokeBrush(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r, err := runBrush(tinyBrush(), smokeOpts(t, traced))
		if err != nil {
			t.Fatal(err)
		}
		res := requireClean(t, r, traced)
		if traced && res.Metrics["engine.scatter_ms"].Value <= 0 {
			t.Fatalf("traced brush run measured no scatter time: %v", res.Metrics)
		}
	}
}

func TestCheckBrushDetectsDisagreement(t *testing.T) {
	row := func(vals ...int64) types.Row {
		r := make(types.Row, len(vals))
		for i, v := range vals {
			r[i] = types.NewInt(v)
		}
		return r
	}
	scatter := []types.Row{row(1, 10), row(2, 20), row(3, 30)}
	summary := []types.Row{{types.NewInt(3), types.NewInt(60), types.NewFloat(20), types.NewInt(10), types.NewInt(30)}}
	hist := []types.Row{row(0, 2), row(1, 1)}
	detail := []types.Row{row(1, 10), row(3, 30)}
	pick := []int{0, 2}
	if bad := checkBrush(scatter, summary, hist, detail, pick); bad != "" {
		t.Fatalf("agreeing views reported: %s", bad)
	}
	for name, tc := range map[string]struct {
		summary, hist, detail []types.Row
	}{
		"count":     {[]types.Row{{types.NewInt(4), types.NewInt(60), types.NewFloat(20), types.NewInt(10), types.NewInt(30)}}, hist, detail},
		"histogram": {summary, []types.Row{row(0, 2)}, detail},
		"sum":       {[]types.Row{{types.NewInt(3), types.NewInt(61), types.NewFloat(20), types.NewInt(10), types.NewInt(30)}}, hist, detail},
		"detail":    {summary, hist, []types.Row{row(1, 10), row(2, 20)}},
		"short":     {summary, hist, []types.Row{row(1, 10)}},
	} {
		if bad := checkBrush(scatter, tc.summary, tc.hist, tc.detail, pick); bad == "" {
			t.Errorf("%s disagreement not detected", name)
		}
	}
}
