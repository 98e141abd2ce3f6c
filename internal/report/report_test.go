package report

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/dataset"
	"repro/internal/ndr"
	"repro/internal/squat"
)

func corpus() []dataset.Record {
	day := func(d int) time.Time { return clock.StudyStart.AddDate(0, 0, d).Add(9 * time.Hour) }
	tpl := func(t ndr.Type) string {
		idx := ndr.NonAmbiguousTemplatesFor(t)[0]
		return ndr.Catalog[idx].Render(ndr.Params{
			Addr: "u@x.com", Local: "u", Domain: "x.com", IP: "5.0.0.1",
			MX: "mx1.x.com", BL: "Spamhaus", Vendor: "v", Sec: "60", Size: "1",
		})
	}
	var out []dataset.Record
	mk := func(to string, d int, results ...string) {
		r := dataset.Record{From: "a@s.com", To: to, StartTime: day(d),
			EndTime: day(d).Add(time.Minute), EmailFlag: "Normal"}
		for range results {
			r.FromIP = append(r.FromIP, "5.0.0.1")
			r.ToIP = append(r.ToIP, "20.0.0.1")
			r.DeliveryLatency = append(r.DeliveryLatency, 8000)
		}
		r.DeliveryResult = results
		out = append(out, r)
	}
	for i := 0; i < 200; i++ {
		mk(fmt.Sprintf("u%d@x.com", i%20), i%400, "250 OK")
	}
	for i := 0; i < 40; i++ {
		mk("g@x.com", i*3, tpl(ndr.T6Greylisted), "250 OK")
	}
	for i := 0; i < 40; i++ {
		mk("ghost@x.com", i*5, tpl(ndr.T8NoSuchUser))
	}
	for i := 0; i < 30; i++ {
		mk("u@x.com", i*7, tpl(ndr.T14Timeout), "250 OK")
	}
	return out
}

func newAnalysis() *analysis.Analysis { return analysis.New(corpus(), nil) }

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4})
	if len([]rune(s)) != 5 {
		t.Errorf("sparkline length: %q", s)
	}
	if !strings.HasSuffix(s, "█") || !strings.HasPrefix(s, "▁") {
		t.Errorf("sparkline scaling: %q", s)
	}
	if got := Sparkline([]float64{0, 0}); got != "▁▁" {
		t.Errorf("all-zero sparkline: %q", got)
	}
}

func TestHbar(t *testing.T) {
	if got := hbar(5, 10, 10); got != "█████" {
		t.Errorf("hbar = %q", got)
	}
	if hbar(1, 0, 10) != "" {
		t.Error("zero max should render empty")
	}
	if got := hbar(20, 10, 10); len([]rune(got)) != 10 {
		t.Errorf("hbar overflow: %q", got)
	}
}

func TestOverviewRendering(t *testing.T) {
	var buf bytes.Buffer
	Overview(&buf, newAnalysis().BouncedPartials().Overview())
	out := buf.String()
	for _, want := range []string{"non-bounced", "soft-bounced", "hard-bounced", "87.07%"} {
		if !strings.Contains(out, want) {
			t.Errorf("overview missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	ps := newAnalysis().BouncedPartials()
	var buf bytes.Buffer
	o := ps.Overview()
	Table1(&buf, ps.TypeDistribution(), o.Bounced())
	out := buf.String()
	for _, tt := range ndr.AllTypes {
		if !strings.Contains(out, tt.String()+" ") {
			t.Errorf("Table1 missing %v", tt)
		}
	}
	if !strings.Contains(out, "31.10%") { // paper anchor column
		t.Error("Table1 missing paper comparison")
	}
}

func TestTable2Rendering(t *testing.T) {
	a := newAnalysis()
	var buf bytes.Buffer
	Table2(&buf, a.BouncedPartials().RootCauses(a.Detect()))
	out := buf.String()
	for _, cause := range []string{"Malicious Email Behavior", "Spam Blocking Policy",
		"Server Manager Misconfiguration", "Improper User Operation", "Poor Email Infrastructure"} {
		if !strings.Contains(out, cause) {
			t.Errorf("Table2 missing cause %q", cause)
		}
	}
}

func TestTablesAndFiguresDoNotPanic(t *testing.T) {
	a := newAnalysis()
	ps := a.BouncedPartials()
	var buf bytes.Buffer
	Table3(&buf, ps.TopDomains(10))
	Table4(&buf, ps.TopASes(10)) // nil Env -> empty, must not panic
	Table5(&buf, ps.CountryBounces(1), 10)
	o := ps.Overview()
	Table6(&buf, ps.AmbiguousTemplates(), o.AmbiguousBounced)
	Fig4(&buf, ps.MTACountryDistribution(), 10)
	Fig5(&buf, ps.Timeline())
	Fig6(&buf, ps.BlocklistFigure())
	Fig7(&buf, a.Durations(a.Detect()))
	Fig8(&buf, ps.InfraMatrix(1, 5))
	Fig10(&buf, ps.LatencyByCountry(1), 5)
	STARTTLS(&buf, ps.STARTTLS())
	det := a.Detect()
	Attackers(&buf, det)
	Typos(&buf, det)
	EnhancedCodeStat(&buf, ps.NoEnhancedCodeShare())
	labeled, cov := a.Pipeline.ManualLabelStats()
	PipelineStats(&buf, a.Pipeline.NumTemplates(), labeled, cov)
	Squat(&buf, squat.Scan(a, det, squat.DefaultConfig()))
	if buf.Len() == 0 {
		t.Fatal("renderers produced nothing")
	}
}

func TestDownsample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	got := downsample(xs, 10)
	if len(got) != 10 {
		t.Fatalf("downsample length %d", len(got))
	}
	if got[0] >= got[9] {
		t.Error("downsample lost ordering")
	}
	short := []float64{1, 2}
	if len(downsample(short, 10)) != 2 {
		t.Error("short series should pass through")
	}
}

func TestClip(t *testing.T) {
	if clip("hello", 10) != "hello" {
		t.Error("short string clipped")
	}
	if got := clip("abcdefghijkl", 10); got != "abcdefg..." || len(got) != 10 {
		t.Errorf("clip = %q", got)
	}
}

func TestFig7RendersAnchors(t *testing.T) {
	a := newAnalysis()
	var buf bytes.Buffer
	Fig7(&buf, a.Durations(a.Detect()))
	if !strings.Contains(buf.String(), "DKIM/SPF") || !strings.Contains(buf.String(), "mailbox full") {
		t.Errorf("Fig7 output:\n%s", buf.String())
	}
}
