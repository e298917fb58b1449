package benchkit

import (
	"fmt"
	"testing"

	"ediflow/internal/database"
	"ediflow/internal/types"
)

// VMStats summarizes one expression-VM benchmark run: the table size the
// statements scanned and how many rows the last statement produced (a
// cheap correctness anchor across runs of the same workload).
type VMStats struct {
	Rows    int64
	Matched int64
}

// vmSetup opens an in-memory database seeded with `rows` rows of mixed
// int/float/string data. In-memory on purpose: the VM benchmarks measure
// expression evaluation over a full scan, not the commit pipeline.
func vmSetup(b *testing.B, rows int) *database.DB {
	b.Helper()
	db, err := database.Open("")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.Exec("CREATE TABLE bench_vm (id INT PRIMARY KEY, v INT, w FLOAT, s STRING)"); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec("BEGIN"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		// Deterministic pseudo-random payload: v spreads over [0,1000),
		// w over [0,10), s cycles through a small vocabulary.
		v := (i * 7919) % 1000
		if _, err := db.Exec(
			"INSERT INTO bench_vm (id, v, w, s) VALUES (?, ?, ?, ?)",
			types.NewInt(int64(i)),
			types.NewInt(int64(v)),
			types.NewFloat(float64(v%100)/10),
			types.NewString(fmt.Sprintf("tag%d", i%17)),
		); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.Exec("COMMIT"); err != nil {
		b.Fatal(err)
	}
	return db
}

// VMScan runs b.N full-scan filtered SELECTs — a multi-operator integer
// predicate over every row, projecting one column — through the
// compiled expression VM.
func VMScan(b *testing.B, rows int) VMStats {
	b.Helper()
	db := vmSetup(b, rows)
	const q = "SELECT id FROM bench_vm WHERE (v * 3 + id) % 7 = 0 AND v < 900"
	var matched int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		matched = len(res.Rows)
	}
	b.StopTimer()
	return VMStats{Rows: int64(rows), Matched: int64(matched)}
}

// VMAggregate runs b.N aggregate SELECTs whose filter and aggregate
// arguments all flow through the batched path (no GROUP BY, so the
// measurement isolates expression evaluation from group hashing).
func VMAggregate(b *testing.B, rows int) VMStats {
	b.Helper()
	db := vmSetup(b, rows)
	const q = "SELECT COUNT(*), SUM(v), AVG(v), MIN(w), MAX(w) FROM bench_vm WHERE v % 7 != 0"
	var matched int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		matched = len(res.Rows)
	}
	b.StopTimer()
	return VMStats{Rows: int64(rows), Matched: int64(matched)}
}
