package policy

import (
	"testing"

	"repro/internal/auth"
	"repro/internal/dns"
	"repro/internal/mail"
	"repro/internal/ndr"
	"repro/internal/world"
)

// eagerAuth is the auth stage as a plain reading of the model: SPF and
// DKIM are both evaluated in full, signature and all, before either
// result is looked at. The stage skips the DKIM signature when SPF has
// passed; it must reach the same verdict and template as this.
func eagerAuth(env *Env, st StageState, req *Request) Verdict {
	senderDomain := req.From.Domain
	spfRes := st.SPF().Evaluate(req.ClientIP, senderDomain, req.At)
	dkimRes := auth.DKIMNone
	if sd := env.SenderDomain(senderDomain); sd != nil {
		dkimRes = st.DKIM().Verify(sd.Signer.Sign(req.MsgID), req.MsgID, req.At)
	}
	if spfRes.Pass() || dkimRes.Pass() {
		return Pass()
	}
	if spfRes == auth.SPFTempError || dkimRes == auth.DKIMTempError {
		return Verdict{Type: ndr.T3AuthFail, Template: authBothIdx}
	}
	dm := st.DMARC().Evaluate(senderDomain, spfRes, senderDomain, dkimRes, senderDomain, req.At)
	if dm.Found && dm.Policy == auth.DMARCReject && !dm.Aligned {
		return Verdict{Type: ndr.T3AuthFail, Template: authDMARCIdx}
	}
	if spfRes == auth.SPFFail && dkimRes == auth.DKIMFail {
		return Verdict{Type: ndr.T3AuthFail, Template: authBothIdx}
	}
	return Verdict{Type: ndr.T3AuthFail, Template: authEitherIdx}
}

// authStage returns the catalog's auth stage bound to env and d.
func authStage(t *testing.T, env *Env, d *world.ReceiverDomain) CheckFunc {
	t.Helper()
	for _, def := range catalog {
		if def.name == "auth" {
			return def.check(env, d)
		}
	}
	t.Fatal("no auth stage in the catalog")
	return nil
}

// TestAuthStageMatchesEagerOracle crosses every SPF outcome with every
// state of the sender's published DKIM key and both DMARC policies, and
// holds the auth stage's verdict to eagerAuth's in each case.
func TestAuthStageMatchesEagerOracle(t *testing.T) {
	const sender = "sender.example"
	proxy := &world.ProxyMTA{IP: "192.0.2.10", Hostname: "px1.coremail.example"}
	signer := auth.NewSigner(sender, "s1", [32]byte{7})
	w := &world.World{
		SenderDomains: []*world.SenderDomain{{Name: sender, Signer: signer}},
		Proxies:       []*world.ProxyMTA{proxy},
	}
	env := NewEnv(w)
	rcvr := &world.ReceiverDomain{Name: "rcvr.example", Policy: world.ReceiverPolicy{EnforceAuth: true}}
	check := authStage(t, env, rcvr)

	spfCases := []struct {
		name    string
		want    auth.SPFResult
		publish func(a *dns.Authority)
	}{
		{"pass", auth.SPFPass, func(a *dns.Authority) {
			a.Add(dns.Record{Name: sender, Type: dns.TypeTXT, TXT: "v=spf1 ip4:" + proxy.IP + " -all"})
		}},
		{"fail", auth.SPFFail, func(a *dns.Authority) {
			a.Add(dns.Record{Name: sender, Type: dns.TypeTXT, TXT: "v=spf1 ip4:198.51.100.1 -all"})
		}},
		{"temperror", auth.SPFTempError, func(a *dns.Authority) {
			a.AddOutage(dns.Outage{Name: sender, Types: []dns.RType{dns.TypeTXT}, Code: dns.ServFail})
		}},
		{"none", auth.SPFNone, func(*dns.Authority) {}},
	}
	dkimCases := []struct {
		name    string
		want    auth.DKIMResult
		publish func(a *dns.Authority)
	}{
		{"good", auth.DKIMPass, func(a *dns.Authority) {
			a.Add(dns.Record{Name: signer.RecordName(), Type: dns.TypeTXT, TXT: signer.TXTRecord()})
		}},
		{"broken", auth.DKIMFail, func(a *dns.Authority) {
			a.Add(dns.Record{Name: signer.RecordName(), Type: dns.TypeTXT, TXT: signer.BrokenTXTRecord()})
		}},
		{"unpublished", auth.DKIMPermError, func(*dns.Authority) {}},
		{"servfail", auth.DKIMTempError, func(a *dns.Authority) {
			a.AddOutage(dns.Outage{Name: signer.RecordName(), Code: dns.ServFail})
		}},
	}
	dmarcPolicies := []string{"reject", "none"}

	req := &Request{
		From:      mail.Address{Local: "alice", Domain: sender},
		To:        mail.Address{Local: "bob", Domain: rcvr.Name},
		MsgID:     "m-auth-1",
		ClientIP:  proxy.IP,
		Proxy:     proxy,
		At:        testAt,
		First:     true,
		RcptCount: 1,
	}
	rejects := 0
	for _, sc := range spfCases {
		for _, dc := range dkimCases {
			for _, dmarc := range dmarcPolicies {
				name := "spf=" + sc.name + "/dkim=" + dc.name + "/dmarc=" + dmarc
				a := dns.NewAuthority()
				a.Add(dns.Record{Name: "_dmarc." + sender, Type: dns.TypeTXT, TXT: "v=DMARC1; p=" + dmarc})
				sc.publish(a)
				dc.publish(a)
				w.DNS = a

				probe := newTestState(w)
				if got := probe.SPF().Evaluate(req.ClientIP, sender, req.At); got != sc.want {
					t.Fatalf("%s: fixture gives SPF %v, want %v", name, got, sc.want)
				}
				if got := probe.DKIM().Verify(signer.Sign(req.MsgID), req.MsgID, req.At); got != dc.want {
					t.Fatalf("%s: fixture gives DKIM %v, want %v", name, got, dc.want)
				}

				got := check(newTestState(w), req)
				want := eagerAuth(env, newTestState(w), req)
				if got != want {
					t.Errorf("%s: stage verdict %+v, eager %+v", name, got, want)
				}
				if got.Rejected() {
					rejects++
				}
			}
		}
	}
	// SPF passes in 8 of the 32 cases and DKIM in 6 more (a good key
	// with SPF not passing); the other 18 reject.
	if rejects != 18 {
		t.Errorf("%d of 32 cases rejected, want 18", rejects)
	}
}
