package bounce_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/dataset"
	"repro/internal/ndr"
	"repro/internal/squat"
	"repro/internal/world"
)

func tinyStudy(t *testing.T) *bounce.Study {
	t.Helper()
	return bounce.Run(bounce.Options{Scale: bounce.ScaleTiny})
}

func TestRunProducesConsistentStudy(t *testing.T) {
	s := tinyStudy(t)
	if s.Records.Len() == 0 || s.Records.Len() != len(s.Truths) {
		t.Fatalf("records=%d truths=%d", s.Records.Len(), len(s.Truths))
	}
	if s.Analysis == nil || s.Detections == nil {
		t.Fatal("analysis not built")
	}
	o := s.BouncedPartials().Overview()
	if o.Total != s.Records.Len() {
		t.Errorf("overview total %d vs %d records", o.Total, s.Records.Len())
	}
	// The corpus must contain real bounces of both degrees.
	if o.SoftBounced == 0 || o.HardBounced == 0 {
		t.Errorf("degenerate corpus: %+v", o)
	}
}

func TestClassifierAgreesWithEngineTruth(t *testing.T) {
	// The analysis pipeline never sees the engine's ground truth; its
	// per-attempt type labels must still agree with it almost always
	// (the paper's EBRC operating point is >90%).
	s := tinyStudy(t)
	agree, total := 0, 0
	for i := 0; i < s.Records.Len(); i++ {
		c := s.Analysis.Classified[i]
		if c.Ambiguous {
			continue
		}
		for j, truthType := range s.Truths[i].AttemptTypes {
			if truthType == ndr.TNone { // accepted attempt
				continue
			}
			// Ambiguous attempt lines are excluded like the paper does.
			if c.AttemptTypes[j] == ndr.T16Unknown && truthType != ndr.T16Unknown {
				continue
			}
			total++
			if c.AttemptTypes[j] == truthType {
				agree++
			}
		}
	}
	if total == 0 {
		t.Fatal("no failed attempts to compare")
	}
	rate := float64(agree) / float64(total)
	if rate < 0.9 {
		t.Errorf("classifier agreement with ground truth %.4f < 0.90", rate)
	}
}

func TestWriteReportAllSections(t *testing.T) {
	s := tinyStudy(t)
	var buf bytes.Buffer
	if err := s.WriteReport(&buf, bounce.AllSections); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, anchor := range []string{
		"== Overview", "== Table 1", "== Table 2", "== Table 3",
		"== Table 4", "== Table 5", "== Table 6", "== Figure 4",
		"== Figure 5", "== Figure 6", "== Figure 7", "== Figure 8",
		"== Figure 10", "STARTTLS", "Attackers", "Typos", "squatting",
		"filter disagreement", "Recommendations",
	} {
		if !strings.Contains(out, anchor) {
			t.Errorf("report missing section %q", anchor)
		}
	}
}

func TestWriteReportUnknownSection(t *testing.T) {
	s := tinyStudy(t)
	var buf bytes.Buffer
	if err := s.WriteReport(&buf, []bounce.Section{"nonsense"}); err == nil {
		t.Error("unknown section should error")
	}
}

// TestParseSections pins the one section-list grammar every caller
// shares (bounceanalyze -section, bounced -flush-sections, ?section= on
// a node and on a coordinator).
func TestParseSections(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		all  []bounce.Section
		want []bounce.Section
	}{
		{"", bounce.AllSections, bounce.AllSections},
		{"all", bounce.AllSections, bounce.AllSections},
		{"all", bounce.PartialSections, bounce.PartialSections},
		{"table1", bounce.AllSections, []bounce.Section{bounce.SecTable1}},
		{" overview , fig5 ", bounce.AllSections, []bounce.Section{bounce.SecOverview, bounce.SecFig5}},
		{"table1,,fig8,", bounce.AllSections, []bounce.Section{bounce.SecTable1, bounce.SecFig8}},
		{"fig8,table1", bounce.PartialSections, []bounce.Section{bounce.SecFig8, bounce.SecTable1}},
		{"all,table1", bounce.AllSections, []bounce.Section{"all", bounce.SecTable1}},
		{"nonsense", bounce.AllSections, []bounce.Section{"nonsense"}},
		{",", bounce.AllSections, nil},
	} {
		if got := bounce.ParseSections(tc.arg, tc.all); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSections(%q) = %v, want %v", tc.arg, got, tc.want)
		}
	}
}

func TestGenerateMatchesRun(t *testing.T) {
	cfg := world.TinyConfig()
	_, records := bounce.Generate(cfg)
	s := bounce.Run(bounce.Options{Config: cfg})
	if len(records) != s.Records.Len() {
		t.Fatalf("Generate %d records vs Run %d", len(records), s.Records.Len())
	}
	for i := range records {
		if records[i].To != s.Records.At(i).To || records[i].FinalResult() != s.Records.At(i).FinalResult() {
			t.Fatalf("record %d differs between Generate and Run", i)
		}
	}
}

func TestDatasetRoundTripThroughJSONL(t *testing.T) {
	s := tinyStudy(t)
	var buf bytes.Buffer
	w := dataset.NewWriter(&buf)
	for i := 0; i < s.Records.Len(); i++ {
		if err := w.Write(s.Records.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	back, err := dataset.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != s.Records.Len() {
		t.Fatalf("round trip lost records: %d vs %d", len(back), s.Records.Len())
	}
	// Re-analysis of the round-tripped dataset gives identical degrees.
	a2 := bounce.Analyze(back, bounce.NewEnvironment(s.World))
	o1, o2 := s.BouncedPartials().Overview(), a2.BouncedPartials().Overview()
	if o1.SoftBounced != o2.SoftBounced || o1.HardBounced != o2.HardBounced {
		t.Errorf("degrees changed across serialization: %+v vs %+v", o1, o2)
	}
}

func TestSquatFromStudy(t *testing.T) {
	s := tinyStudy(t)
	res := s.Squat(squat.DefaultConfig())
	if res == nil {
		t.Fatal("nil squat result")
	}
	// The tiny world has dead domains and typo traffic; the funnel must
	// find something.
	if res.VulnerableCount == 0 {
		t.Error("no vulnerable domains found in tiny world")
	}
}

func TestProxyRegionsExported(t *testing.T) {
	total := 0
	for _, r := range bounce.ProxyRegions() {
		total += r.Proxies
	}
	if total != 34 {
		t.Errorf("proxy fleet = %d", total)
	}
}

func TestConfigForScale(t *testing.T) {
	if bounce.ConfigForScale(bounce.ScaleTiny).TotalEmails >= bounce.ConfigForScale(bounce.ScaleSmall).TotalEmails {
		t.Error("tiny should be smaller than small")
	}
	if bounce.ConfigForScale(bounce.ScaleSmall).TotalEmails >= bounce.ConfigForScale(bounce.ScaleDefault).TotalEmails {
		t.Error("small should be smaller than default")
	}
}

func TestSummaryJSON(t *testing.T) {
	s := tinyStudy(t)
	sm := s.Summary()
	if sm.Emails != s.Records.Len() {
		t.Errorf("summary emails %d", sm.Emails)
	}
	if sm.NonBouncedPct+sm.SoftPct+sm.HardPct < 99.9 || sm.NonBouncedPct+sm.SoftPct+sm.HardPct > 100.1 {
		t.Errorf("degree percentages don't sum: %g", sm.NonBouncedPct+sm.SoftPct+sm.HardPct)
	}
	if len(sm.TypeSharePct) == 0 || len(sm.TopDomains) == 0 || len(sm.TopASes) == 0 {
		t.Error("summary missing sections")
	}
	var buf bytes.Buffer
	if err := sm.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back bounce.Summary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Emails != sm.Emails || back.TypeSharePct["T5"] != sm.TypeSharePct["T5"] {
		t.Error("summary JSON round trip mismatch")
	}
	// Paper anchors must reference real JSON fields.
	raw := map[string]any{}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for field := range bounce.PaperTargets() {
		if _, ok := raw[field]; !ok {
			t.Errorf("paper target field %q not in summary JSON", field)
		}
	}
}
