package analysis

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/delivery"
	"repro/internal/ndr"
	"repro/internal/typo"
	"repro/internal/world"
)

// legacyDetectAdd is detectCollector.Add as it was before the split
// into addFailed and addRecord: one pass, every record filed, the
// record's facts re-derived from the record. It is the oracle for both
// what the scoped two-pass walk resolves and what Add — still the
// fold behind every partial — accumulates.
func legacyDetectAdd(dc *detectCollector, rec *dataset.Record, c *ClassifiedRecord) {
	fromDom, toDom := rec.FromDomain(), rec.ToDomain()
	isT8 := c.HasType(ndr.T8NoSuchUser)

	s := dc.sender(fromDom)
	s.total++
	s.recipients[rec.To] = true
	if isT8 {
		s.t8PerRcvr[toDom]++
	}
	pk := fromDom + "\x00" + toDom + "\x00" + rec.To
	if rec.Succeeded() {
		dc.pairs[pk]++
	} else if _, ok := dc.pairs[pk]; !ok {
		dc.pairs[pk] = 0
	}
	b := dc.bulk[fromDom]
	if b == nil {
		b = &bulkAgg{}
		dc.bulk[fromDom] = b
	}
	b.emails++
	switch c.Degree {
	case dataset.HardBounced:
		b.hard++
	case dataset.SoftBounced:
		b.soft++
	}
	io := dc.from(rec.From)
	if rec.Succeeded() {
		io.okBy[toDom] = append(io.okBy[toDom], localOf(rec.To))
	}
	if isT8 {
		io.failed[rec.To] = true
	}
	onlyT2 := !rec.Succeeded()
	for _, t := range c.AttemptTypes {
		if t != ndr.T2ReceiverDNS {
			onlyT2 = false
			break
		}
	}
	if onlyT2 {
		if dc.resolved[toDom] == 0 {
			dc.resolved[toDom] = 1
		}
	} else {
		dc.resolved[toDom] = 2
	}
	for j, t := range c.AttemptTypes {
		switch t {
		case ndr.T9MailboxFull:
			dc.full[rec.To] = true
		case ndr.T8NoSuchUser:
			if strings.Contains(strings.ToLower(rec.DeliveryResult[j]), "inactive") {
				dc.inactive[rec.To] = true
			}
		}
	}
}

// legacyDurationsAdd is durationsCollector.Add before the split.
func legacyDurationsAdd(uc *durationsCollector, rec *dataset.Record, c *ClassifiedRecord) {
	from, to := rec.FromDomain(), rec.ToDomain()
	if c.HasType(ndr.T3AuthFail) {
		uc.authBad[from] = append(uc.authBad[from], rec.StartTime.UnixNano())
		if uc.authRcvr[from] == nil {
			uc.authRcvr[from] = map[string]bool{}
		}
		uc.authRcvr[from][to] = true
	}
	if rec.Succeeded() {
		k := from + "\x00" + to
		uc.authOk[k] = append(uc.authOk[k], rec.EndTime.UnixNano())
	}
	if c.HasType(ndr.T2ReceiverDNS) {
		uc.mxBad[to] = append(uc.mxBad[to], rec.StartTime.UnixNano())
	} else if rec.Succeeded() {
		uc.okByDom[to] = append(uc.okByDom[to], rec.EndTime.UnixNano())
	}
	if c.HasType(ndr.T9MailboxFull) {
		uc.fullBad[rec.To] = append(uc.fullBad[rec.To], rec.StartTime.UnixNano())
	} else if rec.Succeeded() {
		uc.okByAddr[rec.To] = append(uc.okByAddr[rec.To], rec.EndTime.UnixNano())
	}
}

// checkBouncedFirst holds a.Detect() and a.Durations(det) to three
// other ways of getting them: the legacy one-pass fold, a plain visit
// of today's unscoped collectors (whose state must also encode to the
// legacy fold's bytes — what a partial ships), and a 3-shard PartialSet
// merge. It returns the detections and the figure for further asserts.
func checkBouncedFirst(t *testing.T, records []dataset.Record, env *Environment) (*Analysis, *Detections, DurationsFigure) {
	t.Helper()
	a := New(records, env)
	det := a.Detect()
	fig := a.Durations(det)

	ldc, luc := newDetectCollector(), newDurationsCollector()
	for i := range a.Classified {
		legacyDetectAdd(ldc, a.Records.At(i), &a.Classified[i])
		legacyDurationsAdd(luc, a.Records.At(i), &a.Classified[i])
	}
	dc, uc := newDetectCollector(), newDurationsCollector()
	a.visit(dc, uc)
	if !bytes.Equal(dc.MarshalPartial(), ldc.MarshalPartial()) {
		t.Error("detect: Add accumulates a different partial than the one-pass fold did")
	}
	if !bytes.Equal(uc.MarshalPartial(), luc.MarshalPartial()) {
		t.Error("durations: Add accumulates a different partial than the one-pass fold did")
	}

	parts := partitionCorpus(records, 3)
	var merged *PartialSet
	for i, part := range parts {
		ps, err := UnmarshalPartialSet(New(part, env).Partials().Marshal(), env)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if merged == nil {
			merged = ps
		} else if err := merged.Merge(ps); err != nil {
			t.Fatalf("merge shard %d: %v", i, err)
		}
	}
	mdet := merged.Detect()

	for name, ref := range map[string]struct {
		det *Detections
		fig func(*Detections) DurationsFigure
	}{
		"one-pass fold":  {ldc.result(env, a.rank), luc.resolve},
		"unscoped visit": {dc.result(env, a.rank), uc.resolve},
		"3-shard merge":  {mdet, merged.Durations},
	} {
		if !reflect.DeepEqual(det, ref.det) {
			t.Errorf("Detect() differs from the %s:\n got %+v\nwant %+v", name, det, ref.det)
		}
		if want := ref.fig(ref.det); !reflect.DeepEqual(fig, want) {
			t.Errorf("Durations() differs from the %s:\n got %+v\nwant %+v", name, fig, want)
		}
	}
	return a, det, fig
}

// generated delivers a seeded tiny world of the given size and returns
// its records and the external services around it.
func generated(seed uint64, emails int) ([]dataset.Record, *Environment) {
	cfg := world.TinyConfig()
	cfg.Seed, cfg.TotalEmails = seed, emails
	w := world.New(cfg)
	var records []dataset.Record
	delivery.New(w).Run(func(rec dataset.Record, _ *world.Submission, _ delivery.Truth) {
		records = append(records, rec)
	})
	env := &Environment{
		Geo: w.Geo, Blocklist: w.Blocklist, Breach: w.Breach, Resolver: w.Resolver,
		Registry: w.Registry, UserRegs: w.UserRegs, ProxyRegion: map[string]string{},
	}
	for _, p := range w.Proxies {
		env.ProxyIPs = append(env.ProxyIPs, p.IP)
		env.ProxyRegion[p.IP] = p.Region
	}
	return records, env
}

// TestBouncedFirstMatchesFullVisit: on two seeded generated corpora —
// one without an environment, as the benchmark's nodes run, one with
// the leak corpus, so the recipient sets and bulk counts a scoped walk
// keeps only then are read — the bounced-first Detect and Durations
// resolve exactly what folding every record resolves.
func TestBouncedFirstMatchesFullVisit(t *testing.T) {
	records, _ := generated(11, 6000)
	_, det, fig := checkBouncedFirst(t, records, nil)
	if len(det.GuessingSenders) == 0 || det.GuessTargets == 0 || len(det.UsernameTypos) == 0 ||
		len(det.NeverResolved) == 0 || len(det.FullMailboxes) == 0 || fig.MXRecords.Entities == 0 {
		t.Errorf("degenerate corpus without environment: %+v %+v", det, fig)
	}
	if len(det.BulkSpamSenders) != 0 {
		t.Errorf("bulk senders %v detected without a leak corpus", det.BulkSpamSenders)
	}

	records, env := generated(23, 12000) // enough mail for a bulk sender to reach 30 recipients
	_, det, fig = checkBouncedFirst(t, records, env)
	if len(det.BulkSpamSenders) == 0 || det.BulkEmails == 0 || len(det.GuessingSenders) == 0 ||
		fig.MailboxFull.Entities == 0 {
		t.Errorf("degenerate corpus with environment: %+v %+v", det, fig)
	}
}

// TestBouncedFirstEdges pins, on a hand-built corpus, the places where
// a scope cut too deep would change an answer.
func TestBouncedFirstEdges(t *testing.T) {
	ok := "250 2.0.0 OK"
	out := testCorpus()
	add := func(from, to string, day int, results ...string) {
		out = append(out, rec(from, to, t0.AddDate(0, 0, day), results...))
	}

	// The ≥30 threshold from both sides: 29 T8s at one receiver are not
	// a campaign, 30 are — and only the campaign's pairs are counted,
	// the hit that was delivered before the first guess bounced too.
	add("bot@g30.com", "guess0@v30.com", 1, ok)
	add("bot@g29.com", "guess0@v29.com", 1, ok)
	for i := 0; i < 30; i++ {
		addr := fmt.Sprintf("guess%d@v30.com", i+1)
		add("bot@g30.com", addr, 2, renderT(ndr.T8NoSuchUser, addr))
		if i < 29 {
			addr = fmt.Sprintf("guess%d@v29.com", i+1)
			add("bot@g29.com", addr, 2, renderT(ndr.T8NoSuchUser, addr))
		}
	}

	// A working contact delivered before the bounce it explains.
	add("early@s.com", "carol.jones@ok.com", 3, ok)
	add("early@s.com", "carol.jnes@ok.com", 4, renderT(ndr.T8NoSuchUser, "carol.jnes@ok.com"))

	// Only-T2 until the last record; never.example stays unresolved.
	for i := 0; i < 5; i++ {
		add("a@s.com", "bob@late.example", 50+i, renderT(ndr.T2ReceiverDNS, "bob@late.example"))
		add("a@s.com", "bob@never.example", 50+i, renderT(ndr.T2ReceiverDNS, "bob@never.example"))
	}
	add("a@s.com", "bob@late.example", 60, ok)

	// Soft-bounced: a T9 bad event and a success in one record, and a
	// clean success later that ends the episode.
	add("a@s.com", "softfull@ok.com", 100, renderT(ndr.T9MailboxFull, "softfull@ok.com"), ok)
	add("a@s.com", "softfull@ok.com", 110, ok)

	// A 2xx first line and an NDR after it: degree non-bounced, one
	// failed attempt. Last line refused (T8, a typo of a contact);
	// and refused in the middle, accepted at the end (T9).
	add("odd@s.com", "david.brown@ok.com", 5, ok)
	add("odd@s.com", "david.brwn@ok.com", 6, ok, renderT(ndr.T8NoSuchUser, "david.brwn@ok.com"))
	add("odd@s.com", "midfull@ok.com", 7, ok, renderT(ndr.T9MailboxFull, "midfull@ok.com"), ok)

	a, det, fig := checkBouncedFirst(t, out, nil)

	if got := det.GuessingSenders; len(got) != 1 || got["g30.com"] != "v30.com" {
		t.Errorf("GuessingSenders = %v, want only g30.com -> v30.com", got)
	}
	if det.GuessTargets != 31 || det.GuessHits != 1 || det.GuessDelivered != 1 {
		t.Errorf("guess targets/hits/delivered = %d/%d/%d, want 31/1/1", det.GuessTargets, det.GuessHits, det.GuessDelivered)
	}
	for _, addr := range []string{"carol.jnes@ok.com", "david.brwn@ok.com", "alice.smth@ok.com"} {
		if det.UsernameTypos[addr] == typo.KindNone {
			t.Errorf("%s is not a verified username typo: %v", addr, det.UsernameTypos)
		}
	}
	never := strings.Join(det.NeverResolved, ",")
	if strings.Contains(never, "late.example") || !strings.Contains(never, "never.example") {
		t.Errorf("NeverResolved = %v, want never.example and not late.example", det.NeverResolved)
	}
	for _, addr := range []string{"softfull@ok.com", "midfull@ok.com", "fullbox@ok.com"} {
		if !det.FullMailboxes[addr] {
			t.Errorf("%s is not a full mailbox: %v", addr, det.FullMailboxes)
		}
	}
	// fullbox (testCorpus), softfull and midfull: softfull's episode is
	// closed by its later success (10 days), midfull's never.
	if fig.MailboxFull.Entities != 3 || fig.MailboxFull.AlwaysBroken != 1 {
		t.Errorf("mailbox-full episodes %+v, want 3 entities, 1 always broken", fig.MailboxFull)
	}

	odd := 0
	lines, with := 0, 0
	for i := range out {
		c := &a.Classified[i]
		if c.Degree == dataset.NonBounced && c.failed() {
			odd++
		}
		for _, line := range out[i].DeliveryResult {
			if !strings.HasPrefix(line, "2") {
				lines++
				if ndr.HasEnhancedCode(line) {
					with++
				}
			}
		}
	}
	if odd != 2 {
		t.Errorf("%d non-bounced records with a failed attempt, want the 2 built", odd)
	}
	if got, want := a.BouncedPartials().NoEnhancedCodeShare(), 1-float64(with)/float64(lines); got != want {
		t.Errorf("NoEnhancedCodeShare = %v, want %v over all %d NDR lines", got, want, lines)
	}
}

// bouncedFirst is the full walk, the reference the indexed pass is held
// to: failed over the records with a failed attempt, then every over
// all of them, in record order both times.
func bouncedFirst(a *Analysis, failed, every func(*dataset.Record, *ClassifiedRecord)) {
	for i := range a.Classified {
		if c := &a.Classified[i]; c.failed() {
			failed(a.Records.At(i), c)
		}
	}
	for i := range a.Classified {
		every(a.Records.At(i), &a.Classified[i])
	}
}

// walkedDetect is Detect and Durations by the full walk.
func walkedDetect(a *Analysis) (*Detections, DurationsFigure) {
	dc, uc := newDetectCollector(), newDurationsCollector()
	dc.scoped, dc.breach, uc.scoped = true, a.Env != nil && a.Env.Breach != nil, true
	bouncedFirst(a, func(rec *dataset.Record, c *ClassifiedRecord) {
		dc.addFailed(rec, c)
		uc.addFailed(rec, c)
	}, func(rec *dataset.Record, c *ClassifiedRecord) {
		dc.addRecord(rec, c)
		uc.addRecord(rec, c)
	})
	det := dc.result(a.Env, a.rank)
	return det, uc.resolve(det)
}

// walkedScopedPartials is ScopedPartials by the full walk: the scoped
// addRecord over every record, against the scope.
func walkedScopedPartials(t *testing.T, a *Analysis, scope []byte) []byte {
	t.Helper()
	d := dec{b: scope[len(scopeMagic):]}
	d.checkVersion("scope", scopeVersion)
	breach := d.boolv()
	detect, durations := d.bytes(), d.bytes()
	ps := NewPartialSet(a.Env)
	ps.part = partScoped
	dc, uc := ps.detect, ps.durations
	if err := dc.UnmarshalPartial(detect); err != nil {
		t.Fatal(err)
	}
	if err := uc.UnmarshalPartial(durations); err != nil {
		t.Fatal(err)
	}
	dc.scoped, dc.breach, uc.scoped = true, breach, true
	for i := range a.Classified {
		dc.addRecord(a.Records.At(i), &a.Classified[i])
		uc.addRecord(a.Records.At(i), &a.Classified[i])
	}
	dc.dropFailed()
	uc.dropFailed()
	return ps.Marshal()
}

// indexEdges are records a clean index could file wrongly: a 2xx first
// line with an NDR after it (refused last, or in the middle), which
// must come through the records that are not clean, and recipients
// whose domain differs only in case from a T9-bounced or T8-failed
// one, whose success is filed under the same receiver domain but not
// the same recipient.
func indexEdges() []dataset.Record {
	ok := "250 2.0.0 OK"
	var out []dataset.Record
	add := func(from, to string, day int, results ...string) {
		out = append(out, rec(from, to, t0.AddDate(0, 0, day), results...))
	}
	add("odd@s.com", "david.brown@ok.com", 5, ok)
	add("odd@s.com", "david.brwn@ok.com", 6, ok, renderT(ndr.T8NoSuchUser, "david.brwn@ok.com"))
	add("odd@s.com", "midfull@ok.com", 7, ok, renderT(ndr.T9MailboxFull, "midfull@ok.com"), ok)
	add("a@s.com", "casefull@ok.com", 8, renderT(ndr.T9MailboxFull, "casefull@ok.com"))
	add("a@s.com", "casefull@OK.com", 9, ok)
	add("a@s.com", "casefull@ok.com", 10, ok)
	add("Case@S.com", "carol.jnes@Ok.Com", 11, renderT(ndr.T8NoSuchUser, "carol.jnes@Ok.Com"))
	add("Case@S.com", "carol.jones@OK.com", 12, ok)
	add("Case@S.com", "nodomain", 13, ok)
	return out
}

// checkIndexedScope holds a's Detect, Durations and ScopedPartials to
// the full walk over the same records, under each of scopes.
func checkIndexedScope(t *testing.T, when string, a *Analysis, scopes [][]byte) {
	t.Helper()
	det := a.Detect()
	fig := a.Durations(det)
	wdet, wfig := walkedDetect(a)
	if !reflect.DeepEqual(det, wdet) {
		t.Fatalf("%s: Detect() differs from the full walk's:\n got %+v\nwant %+v", when, det, wdet)
	}
	if !reflect.DeepEqual(fig, wfig) {
		t.Fatalf("%s: Durations() differs from the full walk's:\n got %+v\nwant %+v", when, fig, wfig)
	}
	for k, scope := range scopes {
		ps, err := a.ScopedPartials(scope)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ps.Marshal(), walkedScopedPartials(t, a, scope)) {
			t.Fatalf("%s: ScopedPartials under scope %d differs from the full walk's", when, k)
		}
	}
}

// TestIndexedScopeMatchesFullWalk: over seeded corpora with the index
// edges scattered through them, with and without an environment (so
// the recipient sets and bulk counts a leak corpus reads are folded
// too), snapshots at random cut points and random delta sizes — each
// extending the index the last one carried — and a batch Analysis of
// the same records answer Detect, Durations and ScopedPartials exactly
// as the full walk does. The scopes are the snapshot's own and the
// whole corpus's, with and without a leak corpus, so a scope names
// entities the records do not have yet.
func TestIndexedScopeMatchesFullWalk(t *testing.T) {
	for _, corpus := range []struct {
		seed   uint64
		emails int
	}{{11, 6000}, {23, 12000}} { // 23 at 12,000 has a bulk sender
		seed := corpus.seed
		records, env := generated(seed, corpus.emails)
		rng := rand.New(rand.NewPCG(seed, 37))
		for _, r := range indexEdges() {
			at := rng.IntN(len(records) + 1)
			records = slices.Insert(records, at, r)
		}
		var scopes [][]byte
		for _, e := range []*Environment{nil, env} {
			scope, err := New(records, e).BouncedPartials().MarshalScope()
			if err != nil {
				t.Fatal(err)
			}
			scopes = append(scopes, scope)
		}
		for _, e := range []*Environment{nil, env} {
			inc := NewIncremental(DefaultPipelineConfig())
			added := 0
			for added < len(records) {
				step := 1 + rng.IntN(len(records)/3)
				if rng.IntN(3) == 0 {
					step = 1 + rng.IntN(20)
				}
				step = min(step, len(records)-added)
				inc.AddBatch(records[added : added+step])
				added += step
				a := inc.Snapshot(e)
				own, err := a.BouncedPartials().MarshalScope()
				if err != nil {
					t.Fatal(err)
				}
				when := fmt.Sprintf("seed %d, env %v, %d records", seed, e != nil, added)
				checkIndexedScope(t, when, a, append([][]byte{own}, scopes...))
				dirty, _ := a.cleanSplit()
				for i := range added {
					if _, found := slices.BinarySearch(dirty, int32(i)); found != !clean(&records[i]) {
						t.Fatalf("%s: record %d (clean: %v) is in the dirty walk: %v", when, i, clean(&records[i]), found)
					}
				}
			}
			batch := New(records, e)
			checkIndexedScope(t, fmt.Sprintf("seed %d, env %v, batch", seed, e != nil), batch, scopes)
			det, fig := batch.Detect(), batch.Durations(batch.Detect())
			if len(det.GuessingSenders) == 0 || det.GuessTargets == 0 || len(det.UsernameTypos) == 0 ||
				len(det.FullMailboxes) == 0 || fig.MXRecords.Entities == 0 || fig.MailboxFull.Entities == 0 ||
				e != nil && seed == 23 && det.BulkEmails == 0 {
				t.Errorf("seed %d, env %v: degenerate corpus: %+v %+v", seed, e != nil, det, fig)
			}
		}
	}
}
