// Package dnsbl implements a Spamhaus-style DNS blocklist with the
// dynamics the paper measures in Figure 6: spamtrap-driven listing,
// slow and noisy delisting ("removing the host from the blocklist is
// not always simple and timely"), and repeated relisting of shared MTAs
// whose users keep sending spam. Receiver MTAs query it the way real
// ones query zen.spamhaus.org: by reversed-IP name against the simulated
// DNS, or directly through Listed.
package dnsbl

import (
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/simrng"
)

// Config tunes listing dynamics.
type Config struct {
	// Zone is the DNSBL zone name (e.g. "zen.dnsbl.example").
	Zone string
	// ReportThreshold is the number of spamtrap reports within
	// ReportWindow that triggers a listing.
	ReportThreshold int
	ReportWindow    time.Duration
	// DelistMeanHours / DelistSigma parameterize the log-normal delisting
	// delay. The paper observes multi-day tails.
	DelistMeanHours float64
	DelistSigma     float64
}

// DefaultConfig mirrors the aggressive listing / slow delisting regime
// that keeps roughly half of a busy shared-MTA fleet listed on any day.
func DefaultConfig() Config {
	return Config{
		Zone:            "zen.dnsbl.example",
		ReportThreshold: 3,
		ReportWindow:    24 * time.Hour,
		DelistMeanHours: 30,
		DelistSigma:     0.9,
	}
}

type window struct {
	from, until time.Time
}

// Blocklist is the list state. It is safe for concurrent use.
type Blocklist struct {
	cfg Config

	mu       sync.Mutex
	rng      *simrng.RNG
	reports  map[string][]time.Time
	listings map[string][]window
}

// New creates a blocklist with the given config and RNG (for delisting
// delays).
func New(cfg Config, rng *simrng.RNG) *Blocklist {
	if cfg.ReportThreshold <= 0 {
		cfg.ReportThreshold = 3
	}
	if cfg.ReportWindow <= 0 {
		cfg.ReportWindow = 24 * time.Hour
	}
	if cfg.DelistMeanHours <= 0 {
		cfg.DelistMeanHours = 30
	}
	return &Blocklist{
		cfg:      cfg,
		rng:      rng,
		reports:  make(map[string][]time.Time),
		listings: make(map[string][]window),
	}
}

// Zone returns the DNSBL zone name.
func (b *Blocklist) Zone() string { return b.cfg.Zone }

// ReportSpam records a spamtrap hit or user report for ip at time t.
// Crossing the report threshold lists the IP; the listing lasts a
// log-normally distributed delay whose median is DelistMeanHours.
// Reports while already listed extend nothing (the listing window is
// already running) but still count toward a relisting after delisting.
func (b *Blocklist) ReportSpam(ip string, t time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.listedLocked(ip, t) {
		return
	}
	rs := b.reports[ip]
	cutoff := t.Add(-b.cfg.ReportWindow)
	kept := rs[:0]
	for _, r := range rs {
		if r.After(cutoff) {
			kept = append(kept, r)
		}
	}
	kept = append(kept, t)
	b.reports[ip] = kept
	if len(kept) >= b.cfg.ReportThreshold {
		hours := b.rng.LogNormal(lnMu(b.cfg.DelistMeanHours, b.cfg.DelistSigma), b.cfg.DelistSigma)
		until := t.Add(time.Duration(hours * float64(time.Hour)))
		b.listings[ip] = append(b.listings[ip], window{from: t, until: until})
		b.reports[ip] = nil
	}
}

// lnMu converts a desired median (in the same unit as the output) to the
// mu parameter of a log-normal distribution: median = exp(mu).
func lnMu(median, _ float64) float64 {
	if median <= 0 {
		median = 1
	}
	return math.Log(median)
}

// Listed reports whether ip is on the blocklist at time t.
func (b *Blocklist) Listed(ip string, t time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.listedLocked(ip, t)
}

func (b *Blocklist) listedLocked(ip string, t time.Time) bool {
	ws := b.listings[ip]
	for i := len(ws) - 1; i >= 0; i-- {
		w := ws[i]
		if !t.Before(w.from) && t.Before(w.until) {
			return true
		}
		if w.until.Before(t.Add(-30 * 24 * time.Hour)) {
			break // older windows cannot cover t
		}
	}
	return false
}

// QueryName returns the DNSBL query name for ip in the standard
// reversed-octet form, e.g. "4.3.2.1.zen.dnsbl.example" for 1.2.3.4.
func (b *Blocklist) QueryName(ip string) string {
	octets := strings.Split(ip, ".")
	if len(octets) != 4 {
		return ip + "." + b.cfg.Zone
	}
	return octets[3] + "." + octets[2] + "." + octets[1] + "." + octets[0] + "." + b.cfg.Zone
}
