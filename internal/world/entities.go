package world

import (
	"hash/fnv"
	"time"

	"repro/internal/auth"
	"repro/internal/greylist"
	"repro/internal/mail"
	"repro/internal/ndr"
	"repro/internal/simrng"
	"repro/internal/spamfilter"
)

// Window is a half-open interval of virtual time [From, Until). A zero
// Until means "until the end of the study".
type Window struct {
	From  time.Time
	Until time.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	if t.Before(w.From) {
		return false
	}
	return w.Until.IsZero() || t.Before(w.Until)
}

// ProxyMTA is one of Coremail's 34 outgoing proxy servers.
type ProxyMTA struct {
	ID       int
	Region   string // country code of the hosting region
	Hostname string
	IP       string
	// TrapExposure multiplies the spamtrap-hit probability for spam
	// routed through this proxy; a few proxies serve trap-dense routes,
	// which is why five of them spend >70% of days blocklisted.
	TrapExposure float64
}

// TLSLevel is the STARTTLS posture of a receiver domain (Section 4.3.1).
type TLSLevel int

// TLS postures.
const (
	TLSNone      TLSLevel = iota // does not support STARTTLS
	TLSSupported                 // offers STARTTLS, accepts plaintext
	TLSMandatory                 // rejects MAIL until STARTTLS
)

// ReceiverPolicy is the protection configuration of one receiver domain.
type ReceiverPolicy struct {
	UsesDNSBL bool
	DNSBLFrom time.Time // adoption date (Figure 6's Feb-2023 jump)

	Greylisting bool

	TLS TLSLevel

	// EnforceAuth rejects mail failing SPF/DKIM (and honors DMARC
	// reject policies).
	EnforceAuth bool

	// AmbiguousNDR makes the domain reply with Table-6 templates for
	// reception refusals instead of informative text.
	AmbiguousNDR bool

	MaxMsgSize int // bytes; 0 = unlimited
	MaxRcpts   int // per message; 0 = unlimited

	// UserDailyLimit bounds per-recipient inbound volume (T11).
	UserDailyLimit int
	// DomainDailyLimit bounds the domain's total inbound volume per day
	// (T11); 0 = unlimited.
	DomainDailyLimit int
	// PerProxyHourlyLimit bounds per-source-IP inbound volume per
	// clock.Hour window (T7).
	PerProxyHourlyLimit int
	// QuirkProb is the probability of an idiosyncratic rejection (T16:
	// RFC-compliance or intrusion-prevention style).
	QuirkProb float64

	// SpamtrapShare is the probability that spam delivered to this
	// domain trips a spamtrap report against the sending proxy.
	SpamtrapShare float64
}

// Mailbox is one recipient account.
type Mailbox struct {
	Local        string
	FullWindows  []Window
	InactiveFrom time.Time // zero = always active
}

// FullAt reports whether the mailbox is over quota at t.
func (m *Mailbox) FullAt(t time.Time) bool {
	for _, w := range m.FullWindows {
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// InactiveAt reports whether the account is deactivated at t.
func (m *Mailbox) InactiveAt(t time.Time) bool {
	return !m.InactiveFrom.IsZero() && !t.Before(m.InactiveFrom)
}

// ReceiverDomain is one live receiver domain with its mail
// infrastructure and policy.
type ReceiverDomain struct {
	Name    string
	Country string
	ASN     int
	Rank    int     // InEmailRank position assigned at generation
	Weight  float64 // popularity share used by the workload sampler

	MXHost string
	MXIP   string

	Policy   ReceiverPolicy
	Users    map[string]*Mailbox
	UserList []string // stable ordering for sampling

	Filter   *spamfilter.Filter
	Greylist *greylist.Greylist

	// MXOutages are the Figure-7 "error MX record" episodes (also
	// installed in the DNS authority as outages).
	MXOutages []Window

	dialectSeed uint64
}

// TemplateFor picks the catalog template index this domain's MTA uses
// for bounce type t, weighted by template prevalence but stable per
// domain — the "dialect" that makes identical causes yield different
// NDR text across ESPs.
func (d *ReceiverDomain) TemplateFor(t ndr.Type, r *simrng.RNG) int {
	idxs := ndr.NonAmbiguousTemplatesFor(t)
	if len(idxs) == 1 {
		return idxs[0]
	}
	// The domain prefers one dialect template but occasionally uses
	// alternates (software updates, clustered MXes).
	h := fnv.New64a()
	h.Write([]byte(d.Name))
	h.Write([]byte{byte(t)})
	preferred := idxs[int(h.Sum64()%uint64(len(idxs)))]
	if r.Bool(0.85) {
		return preferred
	}
	return idxs[r.IntN(len(idxs))]
}

// AmbiguousTemplate picks the Table-6 template this domain replies
// with, dominated by the Microsoft-style Access-denied line.
func (d *ReceiverDomain) AmbiguousTemplate(r *simrng.RNG) int {
	idxs := ndr.AmbiguousTemplates()
	weights := make([]float64, len(idxs))
	for i, idx := range idxs {
		weights[i] = ndr.Catalog[idx].Weight
	}
	return idxs[simrng.NewWeighted(weights).Sample(r)]
}

// UserExists reports whether local names an existing, active-or-not
// mailbox.
func (d *ReceiverDomain) UserExists(local string) bool {
	_, ok := d.Users[local]
	return ok
}

// AttackerKind classifies a sender domain's role.
type AttackerKind int

// Attacker kinds (Section 4.2.1).
const (
	NotAttacker AttackerKind = iota
	UsernameGuesser
	BulkSpammer
)

// SenderDomain is one Coremail customer domain.
type SenderDomain struct {
	Name     string
	Signer   *auth.Signer
	Attacker AttackerKind

	// HasDMARC/DMARCPolicy describe the published DMARC record.
	HasDMARC    bool
	DMARCPolicy auth.DMARCPolicy

	// AuthBreakWindows are the Figure-7 DKIM/SPF misconfiguration
	// episodes (installed in DNS as windowed broken records).
	AuthBreakWindows []Window
	// AlwaysBrokenAuth marks the 25.81% of misconfiguring domains whose
	// records never worked.
	AlwaysBrokenAuth bool

	// DNSOutages are windows where the domain's own DNS is down (T1).
	DNSOutages []Window
}

// Contact is one recipient in a sender's address book.
type Contact struct {
	Addr mail.Address
	// Weight is the relative frequency this contact is mailed.
	Weight float64
}

// Sender is one active email account at a customer domain.
type Sender struct {
	Addr     mail.Address
	Dom      *SenderDomain
	Contacts []Contact
	// Volume is the sender's relative share of its domain's traffic.
	Volume float64
	// SpamminessMean centers the latent content spamminess of the
	// sender's messages.
	SpamminessMean float64
	// PersistentTypo, when set, is a misspelled recipient this sender's
	// automation keeps mailing (the forwarding-service failure mode).
	PersistentTypo mail.Address
	// FloodTargets are the guessed-and-confirmed victim addresses a
	// guessing attacker bombards after its campaign.
	FloodTargets []Contact

	contactSampler *simrng.Weighted
}
