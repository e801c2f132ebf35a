package texservice

import (
	"math"
	"testing"

	"textjoin/internal/textidx"
)

func testIndex(t testing.TB) *textidx.Index {
	t.Helper()
	ix := textidx.NewIndex()
	docs := []textidx.Document{
		{ExtID: "d0", Fields: map[string]string{
			"title": "Belief Update", "author": "Radhika", "year": "1993",
			"abstract": "long text about belief update",
		}},
		{ExtID: "d1", Fields: map[string]string{
			"title": "Text Retrieval", "author": "Gravano", "year": "1994",
			"abstract": "boolean text systems",
		}},
		{ExtID: "d2", Fields: map[string]string{
			"title": "Text Filtering", "author": "Kao Gravano", "year": "1994",
			"abstract": "filtering streams",
		}},
	}
	for _, d := range docs {
		ix.MustAdd(d)
	}
	ix.Freeze()
	return ix
}

func TestNewLocalRequiresFrozen(t *testing.T) {
	ix := textidx.NewIndex()
	if _, err := NewLocal(ix); err == nil {
		t.Fatal("unfrozen index accepted")
	}
}

func TestLocalSearchForms(t *testing.T) {
	svc, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Search(bg, textidx.Term{Field: "title", Word: "text"}, FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 2 {
		t.Fatalf("hits = %d, want 2", len(res.Hits))
	}
	h := res.Hits[0]
	if h.ExtID != "d1" {
		t.Fatalf("hit ext = %q", h.ExtID)
	}
	if res.Column("abstract") >= 0 {
		t.Fatal("short form leaked a non-short field")
	}
	if got := h.Value(res.Column("title")); got != "Text Retrieval" {
		t.Fatalf("short fields %v = %v", res.Fields, h.Values)
	}

	res, err = svc.Search(bg, textidx.Term{Field: "title", Word: "text"}, FormLong)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits[0].Value(res.Column("abstract")) == "" {
		t.Fatal("long form missing full fields")
	}
}

func TestLocalSearchTermLimit(t *testing.T) {
	svc, err := NewLocal(testIndex(t), WithMaxTerms(2))
	if err != nil {
		t.Fatal(err)
	}
	small := textidx.And{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "author", Word: "gravano"},
	}
	if _, err := svc.Search(bg, small, FormShort); err != nil {
		t.Fatalf("2-term search rejected: %v", err)
	}
	big := textidx.And{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "author", Word: "gravano"},
		textidx.Term{Field: "year", Word: "1994"},
	}
	if _, err := svc.Search(bg, big, FormShort); err == nil {
		t.Fatal("3-term search accepted with M=2")
	}
	if svc.MaxTerms() != 2 {
		t.Fatalf("MaxTerms = %d", svc.MaxTerms())
	}
}

func TestMeterCharges(t *testing.T) {
	costs := Costs{CI: 3, CP: 0.00001, CS: 0.015, CL: 4, CA: 0.005}
	meter := NewMeter(costs)
	svc, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	svc.meter = meter
	// "text" appears in 2 titles → 2 postings, 2 short docs.
	if _, err := svc.Search(bg, textidx.Term{Field: "title", Word: "text"}, FormShort); err != nil {
		t.Fatal(err)
	}
	u := meter.Snapshot()
	if u.Searches != 1 || u.Postings != 2 || u.ShortDocs != 2 || u.LongDocs != 0 {
		t.Fatalf("usage after short search = %+v", u)
	}
	wantCost := costs.CI + costs.CP*2 + costs.CS*2
	if math.Abs(u.Cost-wantCost) > 1e-12 {
		t.Fatalf("cost = %v, want %v", u.Cost, wantCost)
	}

	// A long search and a retrieve.
	if _, err := svc.Search(bg, textidx.Term{Field: "author", Word: "radhika"}, FormLong); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Retrieve(bg, 0); err != nil {
		t.Fatal(err)
	}
	meterChargesRTP := meter
	meterChargesRTP.ChargeRTP(bg, 10)
	u = meter.Snapshot()
	if u.Searches != 2 || u.Retrieves != 1 || u.LongDocs != 2 || u.RTPDocs != 10 {
		t.Fatalf("usage = %+v", u)
	}
	wantCost += costs.CI + costs.CP*1 + costs.CL*1 // long search
	wantCost += costs.CL                           // retrieve
	wantCost += costs.CA * 10                      // RTP
	if math.Abs(u.Cost-wantCost) > 1e-12 {
		t.Fatalf("cost = %v, want %v", u.Cost, wantCost)
	}

	meter.Reset()
	if u := meter.Snapshot(); u.Cost != 0 || u.Searches != 0 {
		t.Fatalf("reset did not clear usage: %+v", u)
	}
}

func TestUsageAddSub(t *testing.T) {
	a := Usage{Searches: 3, Retrieves: 1, Postings: 10, ShortDocs: 5, LongDocs: 2, RTPDocs: 7, Cost: 12.5}
	b := Usage{Searches: 1, Retrieves: 1, Postings: 4, ShortDocs: 2, LongDocs: 1, RTPDocs: 3, Cost: 2.5}
	sum := a.Add(b)
	if sum.Searches != 4 || sum.Cost != 15 || sum.Postings != 14 {
		t.Fatalf("Add = %+v", sum)
	}
	if diff := sum.Sub(b); diff != a {
		t.Fatalf("Sub = %+v, want %+v", diff, a)
	}
}

func TestRetrieveErrors(t *testing.T) {
	svc, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Retrieve(bg, 99); err == nil {
		t.Fatal("out-of-range retrieve accepted")
	}
	// A failed retrieve must not charge the meter.
	if u := svc.Meter().Snapshot(); u.Retrieves != 0 {
		t.Fatalf("failed retrieve charged: %+v", u)
	}
}

func TestResultIsEmpty(t *testing.T) {
	svc, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Search(bg, textidx.Term{Field: "title", Word: "zebra"}, FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsEmpty() {
		t.Fatal("no-match search not empty")
	}
}

func TestShortFieldsAndInfo(t *testing.T) {
	svc, err := NewLocal(testIndex(t), WithShortFields("title"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Search(bg, textidx.Term{Field: "title", Word: "belief"}, FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fields) != 1 || len(res.Hits[0].Values) != 1 {
		t.Fatalf("short fields %v = %v", res.Fields, res.Hits[0].Values)
	}
	if got := svc.ShortFields(); len(got) != 1 || got[0] != "title" {
		t.Fatalf("ShortFields = %v", got)
	}
	n, err := svc.NumDocs()
	if err != nil || n != 3 {
		t.Fatalf("NumDocs = %d, %v", n, err)
	}
	if svc.Index() == nil {
		t.Fatal("Index accessor nil")
	}
}

func TestFormString(t *testing.T) {
	if FormShort.String() != "short" || FormLong.String() != "long" {
		t.Fatal("Form rendering wrong")
	}
}

func TestRemoteEndToEnd(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(local)
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	remote, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	if n, _ := remote.NumDocs(); n != 3 {
		t.Fatalf("remote NumDocs = %d", n)
	}
	if remote.MaxTerms() != DefaultMaxTerms {
		t.Fatalf("remote MaxTerms = %d", remote.MaxTerms())
	}

	// Remote and local searches must agree.
	q := textidx.And{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "author", Word: "gravano"},
	}
	lres, err := local.Search(bg, q, FormShort)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := remote.Search(bg, q, FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(lres.Hits) != len(rres.Hits) || rres.Postings != lres.Postings {
		t.Fatalf("remote result differs: local %d hits/%d postings, remote %d/%d",
			len(lres.Hits), lres.Postings, len(rres.Hits), rres.Postings)
	}
	for i := range lres.Hits {
		if lres.Hits[i].ExtID != rres.Hits[i].ExtID {
			t.Fatalf("hit %d: local %q remote %q", i, lres.Hits[i].ExtID, rres.Hits[i].ExtID)
		}
	}

	// Client meter charged like a local meter would be.
	u := remote.Meter().Snapshot()
	if u.Searches != 1 || u.ShortDocs != len(rres.Hits) {
		t.Fatalf("remote meter = %+v", u)
	}

	// Retrieve round trip.
	doc, err := remote.Retrieve(bg, rres.Hits[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Fields["abstract"] == "" {
		t.Fatal("remote retrieve missing long-form fields")
	}

	// Errors propagate.
	if _, err := remote.Retrieve(bg, 99); err == nil {
		t.Fatal("remote out-of-range retrieve accepted")
	}
	big := make(textidx.And, 0, DefaultMaxTerms+1)
	for i := 0; i <= DefaultMaxTerms; i++ {
		big = append(big, textidx.Term{Field: "title", Word: "text"})
	}
	if _, err := remote.Search(bg, big, FormShort); err == nil {
		t.Fatal("remote over-limit search accepted")
	}
}

func TestRemoteBadOpAndForm(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(local)
	srv.Logf = t.Logf
	if resp, _ := srv.handle(bg, wireRequest{Op: "bogus"}); resp.Error == "" {
		t.Fatal("unknown op accepted")
	}
	if resp, _ := srv.handle(bg, wireRequest{Op: "search", Query: "t='x'", Form: "medium"}); resp.Error == "" {
		t.Fatal("unknown form accepted")
	}
	if resp, _ := srv.handle(bg, wireRequest{Op: "search", Query: "((("}); resp.Error == "" {
		t.Fatal("unparseable query accepted")
	}
}

func TestParseForm(t *testing.T) {
	if f, err := parseForm(""); err != nil || f != FormShort {
		t.Fatal("empty form should default to short")
	}
	if f, err := parseForm("long"); err != nil || f != FormLong {
		t.Fatal("long form parse failed")
	}
	if _, err := parseForm("huge"); err == nil {
		t.Fatal("bad form accepted")
	}
}
