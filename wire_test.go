package bounce_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/clock"
	"repro/internal/dataset"
	"repro/internal/ndr"
	"repro/internal/smtp"
	"repro/internal/smtpbridge"
	"repro/internal/world"
)

// TestWireEndToEnd delivers a slice of the generated workload through
// REAL SMTP connections — each receiver domain served by the policy
// bridge on a loopback socket — then rebuilds Figure-3 records from the
// wire replies and runs the full classification pipeline over them.
// This is the subset check DESIGN.md promises: the wire path and the
// in-process simulator share one policy engine, so analysis results
// must be coherent either way.
func TestWireEndToEnd(t *testing.T) {
	w := world.New(world.TinyConfig())
	at := clock.StudyStart.AddDate(0, 0, 30).Add(10 * time.Hour)

	// Serve the five busiest domains over real sockets. The rate-limit
	// stages are ablated through the policy chain's hook: this test
	// funnels weeks of traffic through one loopback client at a single
	// virtual instant, which per-source and per-domain throttles would
	// (correctly) defer wholesale.
	servers := map[string]string{} // domain -> addr
	for _, d := range w.Domains[:5] {
		srv := smtp.NewServer(smtpbridge.Backend(w, d, smtpbridge.Options{At: at, Seed: 7,
			DisableStages: []string{"source-rate", "inbound-rate"}}))
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers[d.Name] = srv.Addr().String()
	}

	// Route day-30 submissions addressed to the served domains through
	// the wire; synthesize extra traffic if the day is thin.
	var records []dataset.Record
	sent := 0
	deliver := func(from, to, body string) {
		domain := to[strings.LastIndexByte(to, '@')+1:]
		addr, ok := servers[domain]
		if !ok {
			return
		}
		rep, err := smtp.SendMail(addr, from, to, []byte(body), smtp.SendOptions{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("wire delivery %s: %v", to, err)
		}
		records = append(records, dataset.Record{
			From: from, To: to,
			StartTime: at, EndTime: at.Add(time.Second),
			FromIP:          []string{"127.0.0.1"},
			ToIP:            []string{"127.0.0.1"},
			DeliveryResult:  []string{rep.String()},
			DeliveryLatency: []int64{1000},
			EmailFlag:       "Normal",
		})
		sent++
	}

	for day := 30; day < 60 && sent < 120; day++ {
		for _, sub := range w.EmailsForDay(day) {
			if sent >= 120 {
				break
			}
			deliver(sub.Msg.From.String(), sub.Msg.To.String(), strings.Join(sub.Msg.Tokens, " "))
		}
	}
	// Guarantee known outcomes: existing users, ghosts, spam.
	for name := range servers {
		d := w.DomainByName[name]
		if len(d.UserList) == 0 {
			continue
		}
		deliver("alice@corp.example", d.UserList[0]+"@"+name, "meeting agenda invoice")
		deliver("alice@corp.example", "ghost-wire-test@"+name, "meeting agenda")
		deliver("offers@bulk.example", d.UserList[0]+"@"+name,
			"free-money crypto-double prize winner lottery act-now casino-bonus cheap-meds")
	}
	if len(records) < 20 {
		t.Fatalf("only %d wire deliveries", len(records))
	}

	// The analysis pipeline must classify wire-produced NDRs.
	ps := bounce.Analyze(records, bounce.NewEnvironment(w)).BouncedPartials()
	o := ps.Overview()
	if o.Total != len(records) {
		t.Fatalf("analysis lost records")
	}
	if o.NonBounced == 0 {
		t.Error("no wire deliveries succeeded")
	}
	if o.HardBounced == 0 {
		t.Error("no wire deliveries bounced (ghost/spam injections should)")
	}
	dist := ps.TypeDistribution()
	if dist[ndr.T8NoSuchUser] == 0 && o.AmbiguousBounced == 0 {
		t.Errorf("ghost recipients produced no T8/ambiguous classifications: %v", dist)
	}
	t.Logf("wire corpus: %d emails, %d non / %d soft / %d hard, types %v",
		o.Total, o.NonBounced, o.SoftBounced, o.HardBounced, dist)
}

// TestWireVerdictsMatchSimulatorVerdicts delivers identical envelopes
// through the wire bridge and checks coherence with the mailbox state
// the simulator would apply.
func TestWireVerdictsMatchSimulatorVerdicts(t *testing.T) {
	w := world.New(world.TinyConfig())
	at := clock.StudyStart.AddDate(0, 0, 15).Add(9 * time.Hour)
	var clean *world.ReceiverDomain
	for _, d := range w.Domains {
		p := d.Policy
		if d.Rank >= 11 && !p.AmbiguousNDR && !p.UsesDNSBL && !p.Greylisting &&
			p.TLS != world.TLSMandatory && p.QuirkProb == 0 && len(d.UserList) >= 5 {
			clean = d
			break
		}
	}
	if clean == nil {
		t.Skip("no clean domain")
	}
	// source-rate is ablated: five sends from one loopback identity at
	// one virtual instant would trip the per-source throttle.
	srv := smtp.NewServer(smtpbridge.Backend(w, clean, smtpbridge.Options{At: at, Seed: 3,
		DisableStages: []string{"source-rate"}}))
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	for i, local := range clean.UserList[:5] {
		mbox := clean.Users[local]
		rep, err := smtp.SendMail(addr, fmt.Sprintf("s%d@corp.example", i), local+"@"+clean.Name,
			[]byte("meeting agenda"), smtp.SendOptions{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		wantAccept := !mbox.InactiveAt(at) && !mbox.FullAt(at)
		if got := smtpbridge.Classify(rep) == smtpbridge.Accepted; got != wantAccept {
			t.Errorf("user %s: wire accept=%v, simulator state says %v (%s)", local, got, wantAccept, rep)
		}
	}
}
