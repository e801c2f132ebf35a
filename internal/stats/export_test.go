package stats

import (
	"context"
	"testing"

	"textjoin/internal/texservice"
)

// TestStatsExportMatchesProbing: with the §8 exported-statistics
// capability enabled, the estimates are identical to probing but cost no
// searches at all.
func TestStatsExportMatchesProbing(t *testing.T) {
	svcProbe, tbl := fixture(t)
	probing := New(svcProbe, WithSampleSize(100))
	viaProbes, err := probing.Predicate(tbl, "name", "author")
	if err != nil {
		t.Fatal(err)
	}
	if u := svcProbe.Meter().Snapshot(); u.Searches == 0 {
		t.Fatal("probing estimator sent no searches")
	}

	svcExport, tbl2 := fixture(t)
	exporting := New(svcExport, WithSampleSize(100), WithStatsExport())
	viaExport, err := exporting.Predicate(tbl2, "name", "author")
	if err != nil {
		t.Fatal(err)
	}
	if u := svcExport.Meter().Snapshot(); u.Searches != 0 {
		t.Fatalf("export estimator sent %d searches", u.Searches)
	}
	if viaProbes != viaExport {
		t.Fatalf("estimates differ:\n  probing: %+v\n  export:  %+v", viaProbes, viaExport)
	}
}

// TestStatsExportFallsBack: a service that refuses statistics with
// texservice.ErrNoStats silently degrades to probing — also behind a
// decorator, which passes the refusal on.
func TestStatsExportFallsBack(t *testing.T) {
	for _, wrap := range []func(texservice.Service) texservice.Service{
		func(s texservice.Service) texservice.Service { return hideStats{s} },
		func(s texservice.Service) texservice.Service { return texservice.NewCached(hideStats{s}, 8) },
	} {
		svc, tbl := fixture(t)
		est := New(wrap(svc), WithSampleSize(100), WithStatsExport())
		e, err := est.Predicate(tbl, "name", "author")
		if err != nil {
			t.Fatal(err)
		}
		if e.Samples != 4 {
			t.Fatalf("fallback estimate: %+v", e)
		}
		if u := svc.Meter().Snapshot(); u.Searches == 0 {
			t.Fatal("fallback did not probe")
		}
	}
}

// hideStats refuses statistics, as a service that does not export them
// does.
type hideStats struct{ texservice.Service }

func (hideStats) TermDocFrequency(context.Context, string, string) (int, error) {
	return 0, texservice.ErrNoStats
}
