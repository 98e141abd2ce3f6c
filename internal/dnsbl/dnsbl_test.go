package dnsbl

import (
	"testing"
	"time"

	"repro/internal/simrng"
)

var t0 = time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)

func newTestList() *Blocklist {
	return New(Config{
		Zone:            "zen.dnsbl.example",
		ReportThreshold: 3,
		ReportWindow:    24 * time.Hour,
		DelistMeanHours: 30,
		DelistSigma:     0.5,
	}, simrng.New(1))
}

func TestListingAfterThreshold(t *testing.T) {
	b := newTestList()
	ip := "5.0.0.1"
	b.ReportSpam(ip, t0)
	b.ReportSpam(ip, t0.Add(time.Hour))
	if b.Listed(ip, t0.Add(2*time.Hour)) {
		t.Fatal("listed below threshold")
	}
	b.ReportSpam(ip, t0.Add(2*time.Hour))
	if !b.Listed(ip, t0.Add(2*time.Hour)) {
		t.Fatal("not listed after 3 reports")
	}
}

func TestReportsOutsideWindowDoNotCount(t *testing.T) {
	b := newTestList()
	ip := "5.0.0.2"
	b.ReportSpam(ip, t0)
	b.ReportSpam(ip, t0.Add(30*time.Hour)) // first report expired
	b.ReportSpam(ip, t0.Add(31*time.Hour))
	if b.Listed(ip, t0.Add(31*time.Hour)) {
		t.Fatal("listed despite stale first report")
	}
	b.ReportSpam(ip, t0.Add(32*time.Hour))
	if !b.Listed(ip, t0.Add(32*time.Hour)) {
		t.Fatal("three in-window reports should list")
	}
}

func TestDelisting(t *testing.T) {
	b := newTestList()
	ip := "5.0.0.3"
	for i := 0; i < 3; i++ {
		b.ReportSpam(ip, t0.Add(time.Duration(i)*time.Hour))
	}
	ws := b.listings[ip]
	if len(ws) != 1 {
		t.Fatalf("want 1 window, got %d", len(ws))
	}
	if !b.Listed(ip, ws[0].until.Add(-time.Minute)) {
		t.Error("should be listed just before window end")
	}
	if b.Listed(ip, ws[0].until.Add(time.Minute)) {
		t.Error("should be delisted after window end")
	}
	if d := ws[0].until.Sub(ws[0].from); d < 2*time.Hour || d > 30*24*time.Hour {
		t.Errorf("delist delay %v out of plausible range", d)
	}
}

func TestRelisting(t *testing.T) {
	b := newTestList()
	ip := "5.0.0.4"
	for i := 0; i < 3; i++ {
		b.ReportSpam(ip, t0.Add(time.Duration(i)*time.Minute))
	}
	ws := b.listings[ip]
	after := ws[0].until.Add(time.Hour)
	for i := 0; i < 3; i++ {
		b.ReportSpam(ip, after.Add(time.Duration(i)*time.Minute))
	}
	if got := len(b.listings[ip]); got != 2 {
		t.Fatalf("want 2 windows after relisting, got %d", got)
	}
	if !b.Listed(ip, after.Add(5*time.Minute)) {
		t.Error("should be relisted")
	}
}

func TestReportsWhileListedIgnored(t *testing.T) {
	b := newTestList()
	ip := "5.0.0.5"
	for i := 0; i < 3; i++ {
		b.ReportSpam(ip, t0.Add(time.Duration(i)*time.Minute))
	}
	// Many more reports while listed must not create more windows.
	for i := 0; i < 10; i++ {
		b.ReportSpam(ip, t0.Add(time.Duration(10+i)*time.Minute))
	}
	if got := len(b.listings[ip]); got != 1 {
		t.Errorf("windows while listed: %d want 1", got)
	}
}

func TestDelistDelayMedianRoughlyConfigured(t *testing.T) {
	b := newTestList()
	var durations []time.Duration
	for i := 0; i < 500; i++ {
		ip := "6.0.0." + string(rune('0'+i%10)) + "x" + time.Duration(i).String()
		start := t0.Add(time.Duration(i) * 100 * time.Hour)
		for j := 0; j < 3; j++ {
			b.ReportSpam(ip, start.Add(time.Duration(j)*time.Minute))
		}
		ws := b.listings[ip]
		durations = append(durations, ws[len(ws)-1].until.Sub(ws[len(ws)-1].from))
	}
	// Median should be near 30h.
	below := 0
	for _, d := range durations {
		if d < 30*time.Hour {
			below++
		}
	}
	frac := float64(below) / float64(len(durations))
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("fraction of delist delays below median: %g, want ~0.5", frac)
	}
}

func TestQueryName(t *testing.T) {
	b := newTestList()
	if got := b.QueryName("1.2.3.4"); got != "4.3.2.1.zen.dnsbl.example" {
		t.Errorf("QueryName = %q", got)
	}
	if got := b.QueryName("weird"); got != "weird.zen.dnsbl.example" {
		t.Errorf("QueryName fallback = %q", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	b := New(Config{}, simrng.New(2))
	ip := "8.0.0.1"
	for i := 0; i < 3; i++ {
		b.ReportSpam(ip, t0.Add(time.Duration(i)*time.Minute))
	}
	if !b.Listed(ip, t0.Add(5*time.Minute)) {
		t.Error("default threshold should be 3")
	}
	if DefaultConfig().Zone == "" {
		t.Error("DefaultConfig missing zone")
	}
}

func TestNeverReportedNotListed(t *testing.T) {
	b := newTestList()
	if b.Listed("9.9.9.9", t0) {
		t.Error("unknown IP listed")
	}
}
