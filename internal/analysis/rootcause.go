package analysis

import (
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/dataset"
	"repro/internal/ndr"
	"repro/internal/typo"
)

// RootCause is one of the paper's five root causes (Table 2).
type RootCause int

// Root causes.
const (
	CauseMalicious RootCause = iota
	CauseSpamPolicy
	CauseMisconfig
	CauseUserOperation
	CauseInfrastructure
)

// String returns the Table-2 name.
func (c RootCause) String() string {
	switch c {
	case CauseMalicious:
		return "Malicious Email Behavior"
	case CauseSpamPolicy:
		return "Spam Blocking Policy"
	case CauseMisconfig:
		return "Server Manager Misconfiguration"
	case CauseUserOperation:
		return "Improper User Operation"
	case CauseInfrastructure:
		return "Poor Email Infrastructure"
	}
	return "?"
}

// RootCauseRow is one Table-2 line.
type RootCauseRow struct {
	Cause    RootCause
	Type     string // e.g. "T8", "T8/T13"
	Reason   string
	Degree   string // "hard", "soft", "hard/soft"
	Causer   string // causative entity
	Emails   int
	Examples []string // a few sample recipients/domains for reports
}

// RootCauseTable is the full Table 2.
type RootCauseTable struct {
	Rows         []RootCauseRow
	TotalBounced int // non-ambiguous bounced emails
}

// CauseTotal sums the rows of one cause.
func (t *RootCauseTable) CauseTotal(c RootCause) int {
	n := 0
	for _, r := range t.Rows {
		if r.Cause == c {
			n += r.Emails
		}
	}
	return n
}

// Detections holds the intermediate entity detections the attribution
// rules need; exposed for the attacker/typo sections of the report.
type Detections struct {
	// GuessingSenders maps sender domain -> victim receiver domain for
	// detected username-guessing campaigns.
	GuessingSenders map[string]string
	// GuessStats quantifies the campaigns (paper: 4,273 usernames, 39
	// hits = 0.91%, 536 malicious emails received).
	GuessTargets   int // distinct guessed addresses
	GuessHits      int // guessed addresses that accepted mail
	GuessDelivered int // emails accepted at guessed addresses

	// BulkSpamSenders are sender domains whose recipients are >80%
	// leaked (paper: 31 domains, 3M emails, 70.12% hard).
	BulkSpamSenders map[string]bool
	BulkEmails      int
	BulkHard        int
	BulkSoft        int

	// UsernameTypos maps bounced recipient address -> matched typo kind.
	UsernameTypos map[string]typo.Kind
	// DomainTypos maps never-resolving receiver domain -> typo kind
	// (matched against the top of InEmailRank, like dnstwist).
	DomainTypos map[string]typo.Kind
	// NeverResolved lists receiver domains whose deliveries always
	// failed DNS resolution (squat-scan input).
	NeverResolved []string
	// InactiveAddrs are recipients bounced with "inactive" NDR text.
	InactiveAddrs map[string]bool
	// FullMailboxes are recipients that bounced T9 at least once.
	FullMailboxes map[string]bool
}

// Detect runs the entity detections over the classified corpus: what
// the bounced records name first, then what all records say about it.
// They are made once; every call returns the same Detections, which
// callers only read.
func (a *Analysis) Detect() *Detections {
	det, _ := a.scoped()
	return det
}

// detectSender aggregates one sender domain's Section-4.2.1 state.
type detectSender struct {
	total      int
	recipients map[string]bool
	t8PerRcvr  map[string]int // receiver domain -> T8-bounced records
}

// detectIO aggregates one full sender address's typo-detection state.
type detectIO struct {
	failed map[string]bool     // T8-bounced recipient addrs
	okBy   map[string][]string // domain -> successful locals
}

// bulkAgg counts one sender domain's emails by degree, resolved
// against the bulk-spam sender set after merge.
type bulkAgg struct {
	emails, hard, soft int
}

// detectCollector accumulates, in one pass, the raw order-free state
// the Section-4.2.1/4.3.2 detections need. Everything threshold-
// dependent (the ≥30 cutoffs, the pwned-share test, typo matching,
// quantification) happens in result over the merged state, because a
// sender can cross a threshold only once shards combine.
type detectCollector struct {
	senders map[string]*detectSender // sender domain
	perFrom map[string]*detectIO     // full sender address
	// pairs counts succeeded deliveries per (sender domain, receiver
	// domain, recipient) — quantifies guessing campaigns after merge.
	pairs map[string]int // "fromDom\x00toDom\x00To" -> delivered
	bulk  map[string]*bulkAgg
	// resolved tracks receiver-domain DNS state: 1 = only-T2 so far,
	// 2 = had another outcome (merge takes the max).
	resolved map[string]uint8
	inactive map[string]bool
	full     map[string]bool

	// scoped says the collector is fed a whole corpus bounced first:
	// addFailed has seen every failed attempt before addRecord sees its
	// first record, so addRecord leaves out what result then provably
	// never reads. Analysis.Detect is scoped, and so is a shard's round 2
	// (ScopedPartials), whose addFailed state is every shard's, merged.
	// A whole partial is not: the bounce that makes a delivery matter
	// may be on another shard.
	scoped bool
	breach bool // scoped: result has a leak corpus to ask, so recipient sets and bulk counts are read
}

func newDetectCollector() *detectCollector {
	return &detectCollector{
		senders:  map[string]*detectSender{},
		perFrom:  map[string]*detectIO{},
		pairs:    map[string]int{},
		bulk:     map[string]*bulkAgg{},
		resolved: map[string]uint8{},
		inactive: map[string]bool{},
		full:     map[string]bool{},
	}
}

func (dc *detectCollector) sender(domain string) *detectSender {
	s := dc.senders[domain]
	if s == nil {
		s = &detectSender{recipients: map[string]bool{}, t8PerRcvr: map[string]int{}}
		dc.senders[domain] = s
	}
	return s
}

func (dc *detectCollector) from(addr string) *detectIO {
	io := dc.perFrom[addr]
	if io == nil {
		io = &detectIO{failed: map[string]bool{}, okBy: map[string][]string{}}
		dc.perFrom[addr] = io
	}
	return io
}

func (dc *detectCollector) Add(rec *dataset.Record, c *ClassifiedRecord) {
	if c.failed() {
		dc.addFailed(rec, c)
	}
	dc.addRecord(rec, c)
}

// onlyT2 reports whether the record never got past the receiver's DNS.
func onlyT2(c *ClassifiedRecord) bool {
	if c.Succeeded {
		return false
	}
	for _, t := range c.AttemptTypes {
		if t != ndr.T2ReceiverDNS {
			return false
		}
	}
	return true
}

// addFailed files what a record's failed attempts name: the T8 count
// per sender and receiver, the sender address's failed recipients, a
// domain that never resolved, a full or inactive mailbox.
func (dc *detectCollector) addFailed(rec *dataset.Record, c *ClassifiedRecord) {
	if c.HasType(ndr.T8NoSuchUser) {
		dc.sender(c.FromDomain).t8PerRcvr[c.ToDomain]++
		dc.from(rec.From).failed[rec.To] = true
	}
	if onlyT2(c) && dc.resolved[c.ToDomain] == 0 {
		dc.resolved[c.ToDomain] = 1
	}
	for j, t := range c.AttemptTypes {
		switch t {
		case ndr.T9MailboxFull:
			dc.full[rec.To] = true
		case ndr.T8NoSuchUser:
			if containsFold(rec.DeliveryResult[j], "inactive") {
				dc.inactive[rec.To] = true
			}
		}
	}
}

// addRecord files what every record says whatever became of it: the
// sender's total, recipients and bulk counts, the delivered count of
// its (sender, receiver, recipient), a working contact of its sender
// address, a receiver domain that resolved after all. Each scoped
// exception names the one place result reads the contribution.
func (dc *detectCollector) addRecord(rec *dataset.Record, c *ClassifiedRecord) {
	s := dc.sender(c.FromDomain)
	s.total++

	// result asks the leak corpus about a sender's recipients, and
	// counts a bulk sender's emails, only with a leak corpus.
	if !dc.scoped || dc.breach {
		s.recipients[rec.To] = true
		b := dc.bulk[c.FromDomain]
		if b == nil {
			b = &bulkAgg{}
			dc.bulk[c.FromDomain] = b
		}
		b.emails++
		switch c.Degree {
		case dataset.HardBounced:
			b.hard++
		case dataset.SoftBounced:
			b.soft++
		}
	}

	// result quantifies the pairs of a guessing sender and its victim:
	// a receiver that T8-bounced the sender at least 30 times.
	if !dc.scoped || s.t8PerRcvr[c.ToDomain] >= 30 {
		pk := c.FromDomain + "\x00" + c.ToDomain + "\x00" + rec.To
		if c.Succeeded {
			dc.pairs[pk]++
		} else if _, ok := dc.pairs[pk]; !ok {
			dc.pairs[pk] = 0
		}
	}

	// result pairs a sender address's T8-failed recipients with its
	// working contacts: no failed recipient, no reader.
	io := dc.perFrom[rec.From]
	if io == nil && !dc.scoped {
		io = dc.from(rec.From)
	}
	if io != nil && c.Succeeded {
		io.okBy[c.ToDomain] = append(io.okBy[c.ToDomain], localOf(rec.To))
	}

	// result lists the domains still at 1: one addFailed never named
	// has nothing to be promoted from.
	if !onlyT2(c) {
		if _, named := dc.resolved[c.ToDomain]; named || !dc.scoped {
			dc.resolved[c.ToDomain] = 2
		}
	}
}

// dropFailed empties what addFailed files, leaving a round-2 collector
// with only what addRecord added to the scope it was seeded with.
func (dc *detectCollector) dropFailed() {
	for dom, s := range dc.senders {
		if s.total == 0 { // named by the scope, sent nothing here
			delete(dc.senders, dom)
			continue
		}
		s.t8PerRcvr = map[string]int{}
	}
	for from, io := range dc.perFrom {
		if len(io.okBy) == 0 {
			delete(dc.perFrom, from)
			continue
		}
		io.failed = map[string]bool{}
	}
	for dom, st := range dc.resolved {
		if st != 2 {
			delete(dc.resolved, dom)
		}
	}
	dc.inactive, dc.full = map[string]bool{}, map[string]bool{}
}

func (dc *detectCollector) Merge(other PartialCollector) error {
	o, ok := other.(*detectCollector)
	if !ok {
		return mergeTypeError("detect", other)
	}
	for dom, s := range o.senders {
		t := dc.sender(dom)
		t.total += s.total
		for r := range s.recipients {
			t.recipients[r] = true
		}
		for r, n := range s.t8PerRcvr {
			t.t8PerRcvr[r] += n
		}
	}
	for from, io := range o.perFrom {
		t := dc.from(from)
		for f := range io.failed {
			t.failed[f] = true
		}
		for dom, locals := range io.okBy {
			t.okBy[dom] = append(t.okBy[dom], locals...)
		}
	}
	for pk, n := range o.pairs {
		dc.pairs[pk] += n
	}
	for dom, b := range o.bulk {
		t := dc.bulk[dom]
		if t == nil {
			t = &bulkAgg{}
			dc.bulk[dom] = t
		}
		t.emails += b.emails
		t.hard += b.hard
		t.soft += b.soft
	}
	for dom, st := range o.resolved {
		if st > dc.resolved[dom] {
			dc.resolved[dom] = st
		}
	}
	for addr := range o.inactive {
		dc.inactive[addr] = true
	}
	for addr := range o.full {
		dc.full[addr] = true
	}
	return nil
}

func (dc *detectCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	e.u64(uint64(len(dc.senders)))
	for _, dom := range sortedKeys(dc.senders) {
		s := dc.senders[dom]
		e.str(dom)
		e.intv(s.total)
		e.strSet(s.recipients)
		e.strIntMap(s.t8PerRcvr)
	}
	e.u64(uint64(len(dc.perFrom)))
	for _, from := range sortedKeys(dc.perFrom) {
		io := dc.perFrom[from]
		e.str(from)
		e.strSet(io.failed)
		e.u64(uint64(len(io.okBy)))
		for _, dom := range sortedKeys(io.okBy) {
			e.str(dom)
			// Locals are a multiset; sorting canonicalizes the bytes.
			locals := append([]string(nil), io.okBy[dom]...)
			sort.Strings(locals)
			e.strList(locals)
		}
	}
	e.strIntMap(dc.pairs)
	e.u64(uint64(len(dc.bulk)))
	for _, dom := range sortedKeys(dc.bulk) {
		b := dc.bulk[dom]
		e.str(dom)
		e.intv(b.emails)
		e.intv(b.hard)
		e.intv(b.soft)
	}
	e.u64(uint64(len(dc.resolved)))
	for _, dom := range sortedKeys(dc.resolved) {
		e.str(dom)
		e.intv(int(dc.resolved[dom]))
	}
	e.strSet(dc.inactive)
	e.strSet(dc.full)
	return e.buf
}

func (dc *detectCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("detect", 1)
	n := d.count()
	dc.senders = make(map[string]*detectSender, n)
	for i := 0; i < n; i++ {
		dom := d.str()
		s := &detectSender{}
		s.total = d.intv()
		s.recipients = d.strSet()
		s.t8PerRcvr = d.strIntMap()
		dc.senders[dom] = s
	}
	n = d.count()
	dc.perFrom = make(map[string]*detectIO, n)
	for i := 0; i < n; i++ {
		from := d.str()
		io := &detectIO{}
		io.failed = d.strSet()
		dn := d.count()
		io.okBy = make(map[string][]string, dn)
		for j := 0; j < dn; j++ {
			dom := d.str()
			io.okBy[dom] = d.strList()
		}
		dc.perFrom[from] = io
	}
	dc.pairs = d.strIntMap()
	n = d.count()
	dc.bulk = make(map[string]*bulkAgg, n)
	for i := 0; i < n; i++ {
		dom := d.str()
		dc.bulk[dom] = &bulkAgg{emails: d.intv(), hard: d.intv(), soft: d.intv()}
	}
	n = d.count()
	dc.resolved = make(map[string]uint8, n)
	for i := 0; i < n; i++ {
		dom := d.str()
		dc.resolved[dom] = uint8(d.intv())
	}
	dc.inactive = d.strSet()
	dc.full = d.strSet()
	return d.err
}

// result resolves the accumulated state into Detections. Everything
// here is a pure function of the merged state (sender/receiver
// iteration runs in sorted order wherever a write could collide), so
// any shard split and merge order yields the same detections.
func (dc *detectCollector) result(env *Environment, rank []dataset.RankEntry) *Detections {
	d := &Detections{
		GuessingSenders: map[string]string{},
		BulkSpamSenders: map[string]bool{},
		UsernameTypos:   map[string]typo.Kind{},
		DomainTypos:     map[string]typo.Kind{},
		InactiveAddrs:   dc.inactive,
		FullMailboxes:   dc.full,
	}

	// Username guessing + bulk spam (Section 4.2.1).
	for _, domain := range sortedKeys(dc.senders) {
		s := dc.senders[domain]
		for _, rcvr := range sortedKeys(s.t8PerRcvr) {
			n := s.t8PerRcvr[rcvr]
			if n >= 30 && float64(n) > 0.5*float64(s.total) {
				d.GuessingSenders[domain] = rcvr
			}
		}
		if env != nil && env.Breach != nil && len(s.recipients) >= 30 {
			addrs := sortedKeys(s.recipients)
			if env.Breach.PwnedShare(addrs) > 0.80 {
				d.BulkSpamSenders[domain] = true
			}
		}
	}

	// Quantify.
	guessTargets := map[string]bool{}
	guessHits := map[string]bool{}
	for pk, delivered := range dc.pairs {
		parts := strings.SplitN(pk, "\x00", 3)
		if len(parts) != 3 {
			continue
		}
		fromDom, toDom, to := parts[0], parts[1], parts[2]
		if victim, ok := d.GuessingSenders[fromDom]; ok && toDom == victim {
			guessTargets[to] = true
			if delivered > 0 {
				guessHits[to] = true
				d.GuessDelivered += delivered
			}
		}
	}
	d.GuessTargets = len(guessTargets)
	d.GuessHits = len(guessHits)
	for domain := range d.BulkSpamSenders {
		if b := dc.bulk[domain]; b != nil {
			d.BulkEmails += b.emails
			d.BulkHard += b.hard
			d.BulkSoft += b.soft
		}
	}

	// Username typos: T8-bounced addresses paired with successful
	// recipients of the SAME sender at >90% similarity, verified against
	// the dnstwist-style candidate set. Senders iterate in sorted order
	// and the first classification of an address wins, so colliding
	// writes across senders stay deterministic.
	for _, from := range sortedKeys(dc.perFrom) {
		s := dc.perFrom[from]
		sorted := map[string][]string{} // receiver domain -> s.okBy[domain], sorted once
		for failedAddr := range s.failed {
			if _, done := d.UsernameTypos[failedAddr]; done {
				continue
			}
			dpos := strings.LastIndexByte(failedAddr, '@')
			if dpos < 0 {
				continue
			}
			// Add files okBy under the lower-cased domain (RFC 5321 §2.4:
			// domains compare case-insensitively), so look it up the same way.
			flocal, fdomain := failedAddr[:dpos], strings.ToLower(failedAddr[dpos+1:])
			okLocals, ok := sorted[fdomain]
			if !ok {
				okLocals = append([]string(nil), s.okBy[fdomain]...)
				sort.Strings(okLocals)
				// A contact written to again is tested again for nothing.
				okLocals = slices.Compact(okLocals)
				sorted[fdomain] = okLocals
			}
			for _, okLocal := range okLocals {
				// Similarity first: most of a sender's contacts are one
				// edit from one another ("u12", "u13") but too short to
				// be 90 % alike, and for those it is the cheap test.
				if typo.Similarity(flocal, okLocal) <= 0.9 {
					continue
				}
				if kind, ok := typo.ClassifyLocal(flocal, okLocal); ok {
					d.UsernameTypos[failedAddr] = kind
					break
				}
			}
		}
	}

	// Domain typos: domains whose deliveries never resolved, matched
	// against typo candidates of the top of InEmailRank.
	var never []string
	for dom, st := range dc.resolved {
		if st == 1 {
			never = append(never, dom)
		}
	}
	sort.Strings(never)
	d.NeverResolved = never
	top := rank
	if len(top) > 1000 {
		top = top[:1000]
	}
	for _, cand := range never {
		for _, popular := range top {
			if kind, ok := typo.Classify(cand, popular.Domain); ok {
				d.DomainTypos[cand] = kind
				break
			}
		}
	}
	return d
}

// containsFold reports whether strings.ToLower(s) contains sub, which
// must be lower-case ASCII letters, without building the lowered copy.
func containsFold(s, sub string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			// Rare: runes outside ASCII can fold into it (İ → i).
			return strings.Contains(strings.ToLower(s), sub)
		}
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		j := 0
		for j < len(sub) && s[i+j]|0x20 == sub[j] { // sub is letters: |0x20 folds exactly A–Z onto them
			j++
		}
		if j == len(sub) {
			return true
		}
	}
	return false
}

func localOf(addr string) string {
	if i := strings.LastIndexByte(addr, '@'); i >= 0 {
		return addr[:i]
	}
	return addr
}

// causeCollector accumulates Table-2 attributions in one pass. The
// conditional attributions (guessing, bulk spam, typos, inactive)
// depend on the merged detections, so Add keys them by the entities the
// rules consult and resolve applies the rules afterwards.
type causeCollector struct {
	total int
	t8    map[string]int // "fromDom\x00toDom\x00To" -> T8 emails
	t13   map[string]int // sender domain -> T13 emails
	t2    map[string]int // receiver domain -> T2 emails
	flat  map[string]int // unconditional attributions
}

func newCauseCollector() *causeCollector {
	return &causeCollector{
		t8: map[string]int{}, t13: map[string]int{},
		t2: map[string]int{}, flat: map[string]int{},
	}
}

func (cc *causeCollector) Add(rec *dataset.Record, c *ClassifiedRecord) {
	if c.Degree == dataset.NonBounced || c.Ambiguous {
		return
	}
	cc.total++
	for _, t := range c.Types {
		switch t {
		case ndr.T8NoSuchUser:
			cc.t8[c.FromDomain+"\x00"+c.ToDomain+"\x00"+rec.To]++
		case ndr.T13ContentSpam:
			cc.t13[c.FromDomain]++
		case ndr.T2ReceiverDNS:
			cc.t2[c.ToDomain]++
		case ndr.T5Blocklisted:
			cc.flat["blocklist"]++
		case ndr.T6Greylisted:
			cc.flat["greylist"]++
		case ndr.T7TooFast:
			cc.flat["toofast"]++
		case ndr.T11RateLimited:
			cc.flat["ratelimit"]++
		case ndr.T3AuthFail:
			cc.flat["authfail"]++
		case ndr.T4STARTTLS:
			cc.flat["starttls"]++
		case ndr.T9MailboxFull:
			cc.flat["mailboxfull"]++
		case ndr.T14Timeout:
			cc.flat["timeout"]++
		}
	}
}

func (cc *causeCollector) Merge(other PartialCollector) error {
	o, ok := other.(*causeCollector)
	if !ok {
		return mergeTypeError("cause", other)
	}
	cc.total += o.total
	for k, n := range o.t8 {
		cc.t8[k] += n
	}
	for k, n := range o.t13 {
		cc.t13[k] += n
	}
	for k, n := range o.t2 {
		cc.t2[k] += n
	}
	for k, n := range o.flat {
		cc.flat[k] += n
	}
	return nil
}

func (cc *causeCollector) MarshalPartial() []byte {
	var e enc
	e.version(1)
	e.intv(cc.total)
	e.strIntMap(cc.t8)
	e.strIntMap(cc.t13)
	e.strIntMap(cc.t2)
	e.strIntMap(cc.flat)
	return e.buf
}

func (cc *causeCollector) UnmarshalPartial(b []byte) error {
	d := dec{b: b}
	d.checkVersion("cause", 1)
	cc.total = d.intv()
	cc.t8 = d.strIntMap()
	cc.t13 = d.strIntMap()
	cc.t2 = d.strIntMap()
	cc.flat = d.strIntMap()
	return d.err
}

// resolve applies the detection-dependent attribution rules to the
// accumulated keys.
func (cc *causeCollector) resolve(d *Detections) map[string]int {
	counts := map[string]int{}
	for k, n := range cc.flat {
		counts[k] += n
	}
	for pk, n := range cc.t8 {
		parts := strings.SplitN(pk, "\x00", 3)
		if len(parts) != 3 {
			continue
		}
		fromDom, toDom, to := parts[0], parts[1], parts[2]
		isGuess := false
		if victim, ok := d.GuessingSenders[fromDom]; ok && toDom == victim {
			isGuess = true
		}
		switch {
		case isGuess:
			counts["guess"] += n
		case d.BulkSpamSenders[fromDom]:
			counts["bulkspam"] += n
		case d.UsernameTypos[to] != typo.KindNone:
			counts["usertypo"] += n
		case d.InactiveAddrs[to]:
			counts["inactive"] += n
		default:
			counts["usertypo-unverified"] += n
		}
	}
	for fromDom, n := range cc.t13 {
		if d.BulkSpamSenders[fromDom] {
			counts["bulkspam"] += n
		} else {
			counts["spamfilter"] += n
		}
	}
	for toDom, n := range cc.t2 {
		if _, isTypo := d.DomainTypos[toDom]; isTypo {
			counts["domtypo"] += n
		} else {
			counts["mxerror"] += n
		}
	}
	return counts
}

// buildRootCauseTable lays the resolved counts out as the paper's
// fifteen Table-2 rows.
func buildRootCauseTable(counts map[string]int, total int) RootCauseTable {
	rows := []RootCauseRow{
		{CauseMalicious, "T8", "Guess victim email addresses", "hard", "Attacker", counts["guess"], nil},
		{CauseMalicious, "T8/T13", "Delivering large amounts of spam", "hard", "Attacker", counts["bulkspam"], nil},
		{CauseSpamPolicy, "T5", "Sender MTA listed in blocklists", "hard/soft", "Receiver mail server", counts["blocklist"], nil},
		{CauseSpamPolicy, "T6", "Sender MTA blocked by greylisting", "hard/soft", "Receiver mail server", counts["greylist"], nil},
		{CauseSpamPolicy, "T7", "Sender MTA delivers too fast", "soft", "Receiver mail server", counts["toofast"], nil},
		{CauseSpamPolicy, "T13", "Email detected as spam", "hard", "Receiver mail server", counts["spamfilter"], nil},
		{CauseSpamPolicy, "T11", "User gets too much email", "hard", "Receiver mail server", counts["ratelimit"], nil},
		{CauseMisconfig, "T3", "Sender authentication failure", "hard", "Sender name server", counts["authfail"], nil},
		{CauseMisconfig, "T4", "Server does not support STARTTLS", "soft", "Sender mail server", counts["starttls"], nil},
		{CauseMisconfig, "T2", "Error MX record for receiver domain", "hard", "Receiver name server", counts["mxerror"], nil},
		{CauseUserOperation, "T2", "Receiver domain name typo", "hard", "Sender", counts["domtypo"], nil},
		{CauseUserOperation, "T8", "Receiver username typo", "hard", "Sender", counts["usertypo"] + counts["usertypo-unverified"], nil},
		{CauseUserOperation, "T8", "Receiver email address is inactive", "hard", "Receiver", counts["inactive"], nil},
		{CauseUserOperation, "T9", "Receiver mailbox is full", "hard", "Receiver", counts["mailboxfull"], nil},
		{CauseInfrastructure, "T14", "SMTP session timeout", "soft", "/", counts["timeout"], nil},
	}
	return RootCauseTable{Rows: rows, TotalBounced: total}
}
