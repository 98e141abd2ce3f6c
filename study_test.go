package bounce_test

import (
	"bytes"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/advise"
	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/ndr"
	"repro/internal/report"
	"repro/internal/squat"
	"repro/internal/typo"
	"repro/internal/world"
)

// generationKind decides a typo pairing by generation alone, the way
// typo.Classify did before it tested the edit first: scan every
// candidate of original for the lower-cased observed name.
func generationKind(cands []typo.Candidate, observed string) (typo.Kind, bool) {
	observed = strings.ToLower(observed)
	for _, c := range cands {
		if c.Name == observed {
			return c.Kind, true
		}
	}
	return typo.KindNone, false
}

// typosByGeneration resolves Detections' typo fields straight from the
// classified records, every pairing decided by generationKind: T8
// bounces against the same sender's working contacts at >90 %
// similarity, never-resolved receiver domains against the top 1,000 of
// InEmailRank in rank order.
func typosByGeneration(a *analysis.Analysis) (user, domain map[string]typo.Kind, never []string) {
	type sender struct {
		failed map[string]bool
		okBy   map[string][]string
	}
	split := func(addr string) (local, dom string) {
		i := strings.LastIndexByte(addr, '@')
		return addr[:i], strings.ToLower(addr[i+1:])
	}
	senders := map[string]*sender{}
	resolved := map[string]bool{} // receiver domain -> had an outcome other than T2
	for i := 0; i < a.Records.Len(); i++ {
		rec, c := a.Records.At(i), &a.Classified[i]
		s := senders[rec.From]
		if s == nil {
			s = &sender{failed: map[string]bool{}, okBy: map[string][]string{}}
			senders[rec.From] = s
		}
		local, dom := split(rec.To)
		if rec.Succeeded() {
			s.okBy[dom] = append(s.okBy[dom], local)
		}
		if c.HasType(ndr.T8NoSuchUser) {
			s.failed[rec.To] = true
		}
		onlyT2 := !rec.Succeeded()
		for _, t := range c.AttemptTypes {
			onlyT2 = onlyT2 && t == ndr.T2ReceiverDNS
		}
		resolved[dom] = resolved[dom] || !onlyT2
	}

	user = map[string]typo.Kind{}
	froms := make([]string, 0, len(senders))
	for from := range senders {
		froms = append(froms, from)
	}
	sort.Strings(froms)
	for _, from := range froms {
		s := senders[from]
		for addr := range s.failed {
			if _, done := user[addr]; done {
				continue
			}
			local, dom := split(addr)
			oks := append([]string(nil), s.okBy[dom]...)
			sort.Strings(oks)
			for _, ok := range oks {
				if ok == local || typo.Similarity(local, ok) <= 0.9 {
					continue
				}
				if kind, hit := generationKind(typo.Label(ok), local); hit {
					user[addr] = kind
					break
				}
			}
		}
	}

	domain = map[string]typo.Kind{}
	for dom, ok := range resolved {
		if !ok {
			never = append(never, dom)
		}
	}
	sort.Strings(never)
	top := a.InEmailRank()
	if len(top) > 1000 {
		top = top[:1000]
	}
	for _, cand := range never {
		for _, popular := range top {
			if kind, hit := generationKind(typo.Domain(popular.Domain), cand); hit {
				domain[cand] = kind
				break
			}
		}
	}
	return user, domain, never
}

// TestDetectMatchesGenerationReference: on a seeded generated corpus,
// matching typos by the edit finds exactly the typos, of exactly the
// kinds, that generation alone finds — from one pass over the corpus
// and from two shards' merged partial aggregates.
func TestDetectMatchesGenerationReference(t *testing.T) {
	cfg := world.DefaultConfig()
	cfg.TotalEmails = 20_000
	cfg.Seed = 20
	w, records := bounce.GenerateParallel(cfg, 2)
	env := bounce.NewEnvironment(w)
	a := bounce.Analyze(records, env)

	user, domain, never := typosByGeneration(a)
	t.Logf("%d records: %d username typos, %d domain typos, %d never-resolved domains", len(records), len(user), len(domain), len(never))
	if len(user) == 0 || len(domain) == 0 || len(never) <= len(domain) {
		t.Fatalf("degenerate corpus: %d username typos, %d domain typos, %d never-resolved", len(user), len(domain), len(never))
	}

	var merged *analysis.PartialSet
	parts := make([][]dataset.Record, 2)
	for i := range records {
		own := analysis.OwnerOf(&records[i], len(parts))
		parts[own] = append(parts[own], records[i])
	}
	for i, part := range parts {
		ps, err := analysis.UnmarshalPartialSet(analysis.New(part, env).Partials().Marshal(), env)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if merged == nil {
			merged = ps
		} else if err := merged.Merge(ps); err != nil {
			t.Fatalf("merge shard %d: %v", i, err)
		}
	}

	single := a.Detect()
	for name, det := range map[string]*analysis.Detections{"Analysis.Detect": single, "merged PartialSet.Detect": merged.Detect()} {
		if !reflect.DeepEqual(det.UsernameTypos, user) {
			t.Errorf("%s: username typos %v, generation says %v", name, det.UsernameTypos, user)
		}
		if !reflect.DeepEqual(det.DomainTypos, domain) {
			t.Errorf("%s: domain typos %v, generation says %v", name, det.DomainTypos, domain)
		}
		if !reflect.DeepEqual(det.NeverResolved, never) {
			t.Errorf("%s: never-resolved %v, reference %v", name, det.NeverResolved, never)
		}
		if !reflect.DeepEqual(det, single) {
			t.Errorf("%s: detections differ from the single pass's", name)
		}
	}
}

// TestStudyDurationsOnce: concurrent full reports over one Study — a
// node's cached study under concurrent report requests — share one
// inference of Figure 7 and each reads byte for byte what a fresh study
// rendered alone reads; fig7, advice and Summary say what
// a.Durations(a.Detect()) says; and Detections assigned by the caller
// are the ones the figure is inferred from.
func TestStudyDurationsOnce(t *testing.T) {
	base := tinyStudy(t)
	a := base.Analysis
	fresh := func() *bounce.Study {
		return &bounce.Study{World: base.World, Records: base.Records, Analysis: a}
	}
	render := func(st *bounce.Study, sections ...bounce.Section) []byte {
		var buf bytes.Buffer
		if err := st.WriteReport(&buf, sections); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}

	want := render(fresh(), bounce.AllSections...)
	shared := fresh()
	got := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = render(shared, bounce.AllSections...)
		}()
	}
	wg.Wait()
	for i, b := range got {
		if !bytes.Equal(b, want) {
			t.Errorf("concurrent report %d differs from a fresh study's (%d vs %d bytes)", i, len(b), len(want))
		}
	}

	det := a.Detect()
	fig := a.Durations(det)
	if fig.MailboxFull.Entities == 0 || len(det.FullMailboxes) == 0 {
		t.Fatalf("degenerate corpus: no full-mailbox episodes in %+v", fig)
	}
	var direct bytes.Buffer
	report.Fig7(&direct, fig)
	direct.WriteByte('\n')
	if b := render(shared, bounce.SecFig7); !bytes.Equal(b, direct.Bytes()) {
		t.Errorf("fig7 from the study:\n%s\nfrom a.Durations(a.Detect()):\n%s", b, direct.Bytes())
	}
	direct.Reset()
	report.Advisories(&direct, advise.Run(a.BouncedPartials(), det, fig, squat.Scan(a, det, squat.DefaultConfig()), advise.DefaultConfig()))
	direct.WriteByte('\n')
	if b := render(shared, bounce.SecAdvice); !bytes.Equal(b, direct.Bytes()) {
		t.Errorf("advice from the study:\n%s\nover a.Durations(a.Detect()):\n%s", b, direct.Bytes())
	}
	sm := shared.Summary()
	if sm.AuthFixMeanDays != fig.AuthDKIMSPF.MeanDays() || sm.MXFixMedianDays != fig.MXRecords.MedianDays() ||
		sm.FullFixMedianDays != fig.MailboxFull.MedianDays() {
		t.Errorf("Summary's Figure-7 fields %v %v %v differ from a.Durations(a.Detect())",
			sm.AuthFixMeanDays, sm.MXFixMedianDays, sm.FullFixMedianDays)
	}

	// Assigned detections that know of no full mailbox: the figure must
	// lose its mailbox-full row, not be inferred from a.Detect().
	doctored := *det
	doctored.FullMailboxes = map[string]bool{}
	assigned := fresh()
	assigned.Detections = &doctored
	direct.Reset()
	report.Fig7(&direct, a.Durations(&doctored))
	direct.WriteByte('\n')
	b := render(assigned, bounce.SecFig7)
	if !bytes.Equal(b, direct.Bytes()) {
		t.Errorf("fig7 ignores the assigned Detections:\n%s\nwant:\n%s", b, direct.Bytes())
	}
	if bytes.Equal(b, render(shared, bounce.SecFig7)) {
		t.Error("doctored detections render the same fig7: the case tests nothing")
	}
}

// TestStudyPartialsOnce: eight concurrent callers of Partials on one
// Study — bounceanalyze -shards, or any library caller sharing a cached
// study — get one and the same aggregate. Before the sync.Once the
// unsynchronised lazy init raced on the field (this test fails under
// -race) and could build the aggregate once per caller.
func TestStudyPartialsOnce(t *testing.T) {
	base := tinyStudy(t)
	shared := &bounce.Study{World: base.World, Records: base.Records, Analysis: base.Analysis}
	got := make([]*analysis.PartialSet, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = shared.Partials()
		}()
	}
	wg.Wait()
	for i, p := range got {
		if p == nil || p != got[0] {
			t.Fatalf("caller %d got aggregate %p, caller 0 got %p", i, p, got[0])
		}
	}
	if want := base.Analysis.Partials().Marshal(); !bytes.Equal(got[0].Marshal(), want) {
		t.Error("the shared aggregate differs from a.Partials()")
	}
}

// TestStudySquatsOnce: the squat and advice sections and Summary all
// read the default-config squat scan, which runs once per study however
// many of them, and however many concurrent reports, ask; a scan with
// another configuration is not the cached one.
func TestStudySquatsOnce(t *testing.T) {
	base := tinyStudy(t)
	scans := 0
	defer bounce.CountSquatScans(&scans)()
	st := &bounce.Study{World: base.World, Records: base.Records, Analysis: base.Analysis}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := st.WriteReport(io.Discard, bounce.AllSections); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st.Summary()
	if scans != 1 {
		t.Fatalf("four full reports and a Summary scanned %d times, want 1", scans)
	}
	if st.Squat(squat.DefaultConfig()) != st.Squat(squat.DefaultConfig()) {
		t.Fatal("the default-config scan is not the cached one")
	}
	cfg := squat.DefaultConfig()
	cfg.MaxUsernameProbes++
	st.Squat(cfg)
	if scans != 2 {
		t.Fatalf("a scan with another configuration ran %d scans in all, want 2", scans)
	}
}
