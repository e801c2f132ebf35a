package main

import (
	"context"
	"hash/fnv"
	"strings"

	"textjoin/internal/exec"
	"textjoin/internal/relation"
	"textjoin/internal/sqlparse"
	"textjoin/internal/textidx"
)

// rowsChecksum is an order-independent checksum of a result multiset.
func rowsChecksum(rows [][]string) uint64 {
	var sum uint64
	for _, row := range rows {
		h := fnv.New64a()
		for _, v := range row {
			h.Write([]byte(v))
			h.Write([]byte{0x1e})
		}
		sum += h.Sum64()
	}
	return sum + uint64(len(rows))<<48
}

// tableRows renders a table the way gateway.Response.Rows does.
func tableRows(t *relation.Table) [][]string {
	out := make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		out[i] = make([]string, len(row))
		for j, v := range row {
			out[i][j] = v.Text()
		}
	}
	return out
}

// gate is the correctness check inside the run: a seeded sample of
// queries goes through the gateway, and each result multiset must equal
// exec.NaiveQuery's over the same catalog and index. On the fleet
// workload each must also equal what the in-process stack (cold_local's)
// returns. The sample uses the measured shapes; where those select half
// a 16k-row table, it uses constants that keep the oracle's cross
// product small (stream.narrow).
func gate(res *result, rg *rig, sp spec, cfg config, index *textidx.Index) {
	var local *stack
	if sp.kind == textFleet {
		var err error
		if local, err = buildStack(rg.ds, textLocal, cfg.clients, nil, "", 0); err != nil {
			res.attempted++
			res.fail("building the in-process stack to compare with: %v", err)
			return
		}
		defer local.close()
	}
	cat := rg.st.eng.Catalog()
	for _, sql := range rg.q.sample(cfg.seed, gateSample) {
		res.attempted++
		resp, err := rg.st.gw.Query(context.Background(), sql)
		if err != nil {
			res.fail("gate query failed: %v: %s", err, sql)
			continue
		}
		got := rowsChecksum(resp.Rows)
		want, err := naive(sql, cat, index)
		if err != nil {
			res.fail("oracle failed: %v: %s", err, sql)
			continue
		}
		if got != rowsChecksum(want) {
			res.fail("wrong answer (%d rows, oracle %d): %s", len(resp.Rows), len(want), sql)
			continue
		}
		if local != nil {
			lresp, err := local.gw.Query(context.Background(), sql)
			if err != nil || rowsChecksum(lresp.Rows) != got {
				res.fail("fleet and in-process answers differ (err %v): %s", err, sql)
			}
		}
	}
}

// naive evaluates sql with the whole-query oracle.
func naive(sql string, cat *sqlparse.Catalog, index *textidx.Index) ([][]string, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	a, err := sqlparse.Analyze(q, cat)
	if err != nil {
		return nil, err
	}
	t, err := exec.NaiveQuery(a, cat, index)
	if err != nil {
		return nil, err
	}
	return tableRows(t), nil
}

// firstLine trims a failure message to one line for the report.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
