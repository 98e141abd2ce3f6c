package analysis

import (
	"strings"
	"sync"

	"repro/internal/breach"
	"repro/internal/dataset"
	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/geo"
	"repro/internal/ndr"
	"repro/internal/registrar"
)

// Environment bundles the external services the paper consulted beside
// its passive dataset: geolocation (ip-api), the blocklist state
// (Spamhaus), the leak corpus (HaveIBeenPwned), DNS, and the registries
// (GoDaddy/WHOIS + provider registration UIs). All fields are optional;
// analyses requiring a missing service return zero results.
type Environment struct {
	Geo       *geo.DB
	Blocklist *dnsbl.Blocklist
	Breach    *breach.Corpus
	Resolver  *dns.Resolver
	Registry  *registrar.Registry
	UserRegs  map[string]*registrar.UsernameRegistry

	// ProxyIPs/ProxyRegion describe the sender fleet (known to the
	// operator running the analysis, as at Coremail).
	ProxyIPs    []string
	ProxyRegion map[string]string // proxy IP -> country code
}

// ClassifiedRecord is one record run through the bounce pipeline: its
// verdict, and the record's own facts every later pass asks for
// (Degree, the two domains, Succeeded), derived once by the classify
// pass — which reads the record anyway — so that a pass over the
// non-bounced five sixths of a corpus reads the verdict slice in order
// and never follows a pointer into record memory.
type ClassifiedRecord struct {
	Degree dataset.Degree
	// FromDomain and ToDomain are rec.FromDomain() and rec.ToDomain():
	// the lower-cased sender and receiver domain.
	FromDomain, ToDomain string
	// AttemptTypes aligns with DeliveryResult; TNone for accepted
	// attempts.
	AttemptTypes []ndr.Type
	// Types is the set of distinct non-ambiguous bounce types across
	// failed attempts.
	Types []ndr.Type
	// Succeeded is rec.Succeeded(): the final attempt was accepted.
	Succeeded bool
	// Ambiguous reports that every failed attempt carried only
	// ambiguous NDR text — the 6M emails the paper excludes.
	Ambiguous bool
}

// setFacts fills in what needs no pipeline, in place: the verdict is
// 96 bytes and the classify pass makes one per record.
func (c *ClassifiedRecord) setFacts(rec *dataset.Record) {
	c.Degree = rec.BounceDegree()
	c.FromDomain = rec.FromDomain()
	c.ToDomain = rec.ToDomain()
	c.Succeeded = rec.Succeeded()
}

// failed reports whether the record is anything but cleanly delivered:
// some attempt was refused (AttemptTypes[i] != TNone, whichever line it
// was — an ingested record may open with a 2xx and carry an NDR after
// it, so Degree does not say) or none was made.
func (c *ClassifiedRecord) failed() bool {
	return !c.Succeeded || c.Ambiguous || len(c.Types) > 0
}

// HasType reports whether t appears among the record's bounce types.
func (c *ClassifiedRecord) HasType(t ndr.Type) bool {
	for _, x := range c.Types {
		if x == t {
			return true
		}
	}
	return false
}

// Analysis holds a classified corpus ready for table/figure extraction.
// Records is an index-addressable view (plain slice or slab store
// prefix); use Records.Len/At to walk it.
type Analysis struct {
	Records    dataset.Records
	Classified []ClassifiedRecord
	Pipeline   *ShardedPipeline
	Env        *Environment

	counts map[string]int // receiver-domain popularity: every set's Counts
	rank   []dataset.RankEntry
	// carried is the round-1 fold of what no pipeline can change, which
	// the Incremental carries across snapshots (carried.fold), dirty
	// lists the records that are not clean, and index files the rest by
	// entity (carried.index). Every Analysis has all three from
	// construction (Incremental.build).
	carried *PartialSet
	dirty   []int32
	index   *cleanIndex
	// failedDetect and failedDurations are what the failed records name
	// (failedFold), det what Detect returns and durations the scoped fold
	// Durations resolves (scoped); each pair is made once.
	failedDetect    *detectCollector
	failedDurations *durationsCollector
	failedOnce      sync.Once
	det             *Detections
	durations       *durationsCollector
	scopedOnce      sync.Once
}

// New classifies records with freshly built per-substream pipelines and
// prepares the derived indexes: a cold snapshot over the slice, which
// it reads in place — the Analysis's Records are the caller's. env may
// be nil for dataset-only analyses.
func New(records []dataset.Record, env *Environment) *Analysis {
	inc := NewIncremental(DefaultPipelineConfig())
	view := dataset.SliceRecords(records)
	inc.trainTo(view, len(records))
	for i := range records {
		inc.counts[records[i].ToDomain()]++
	}
	return inc.build(view, inc.b, inc.dirty, inc.counts, env)
}

// NewFromSource consumes a record stream in a single pass: while
// records arrive it trains the classification pipeline and accumulates
// the popularity counts, then snapshots what it took in. Because
// pipeline training order equals stream order, an Analysis built from a
// source is identical to one built from the collected slice.
func NewFromSource(src dataset.RecordSource, cfg PipelineConfig, env *Environment) *Analysis {
	inc := NewIncremental(cfg)
	// Train on the dedicated goroutine so template mining overlaps the
	// source's own decode work.
	inc.StartTrainer()
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		inc.Add(rec)
	}
	inc.StopTrainer()
	return inc.Snapshot(env)
}

// ClassifyRecord runs one record's attempt replies through the trained
// pipeline.
func (p *Pipeline) ClassifyRecord(rec *dataset.Record) (c ClassifiedRecord) {
	c.setFacts(rec)
	c.AttemptTypes = make([]ndr.Type, len(rec.DeliveryResult))
	seen := map[ndr.Type]bool{}
	failed, ambiguousOnly := 0, true
	for i, line := range rec.DeliveryResult {
		if strings.HasPrefix(line, "2") {
			c.AttemptTypes[i] = ndr.TNone
			continue
		}
		failed++
		typ, amb := p.ClassifyLine(line)
		c.AttemptTypes[i] = typ
		if amb {
			continue
		}
		ambiguousOnly = false
		if !seen[typ] {
			seen[typ] = true
			c.Types = append(c.Types, typ)
		}
	}
	c.Ambiguous = failed > 0 && ambiguousOnly
	return c
}

// InEmailRank returns the receiver-domain popularity list.
func (a *Analysis) InEmailRank() []dataset.RankEntry { return a.rank }

// Overview is the Section-4.1 headline statistic.
type Overview struct {
	Total       int
	NonBounced  int
	SoftBounced int
	HardBounced int
	// SoftAvgAttempts is the mean delivery count of soft-bounced emails
	// (paper: ~3, grounding the "retry at least three times" advice).
	SoftAvgAttempts float64
	// AmbiguousBounced is the count of bounced emails with only
	// ambiguous NDRs (paper: 6M of 38M).
	AmbiguousBounced int
}

// Bounced reports the number of emails that bounced at least once.
func (o Overview) Bounced() int { return o.SoftBounced + o.HardBounced }

// AmbiguousTemplate is one Table-6 row.
type AmbiguousTemplate struct {
	Template string
	Count    int
}
