package ndr

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/mail"
)

// parseBySplit is Parse as written over strconv.Atoi and strings.Split:
// the definition the in-place parse is held to.
func parseBySplit(line string) Parsed {
	enh := func(s string) (mail.EnhancedCode, bool) {
		parts := strings.Split(s, ".")
		if len(parts) != 3 {
			return mail.EnhancedCode{}, false
		}
		var vals [3]int
		for i, p := range parts {
			n, err := strconv.Atoi(p)
			if err != nil || n < 0 || n > 999 {
				return mail.EnhancedCode{}, false
			}
			vals[i] = n
		}
		if vals[0] != 2 && vals[0] != 4 && vals[0] != 5 {
			return mail.EnhancedCode{}, false
		}
		return mail.EnhancedCode{Class: vals[0], Subject: vals[1], Detail: vals[2]}, true
	}
	var p Parsed
	s := strings.TrimSpace(line)
	if len(s) >= 3 {
		if n, err := strconv.Atoi(s[:3]); err == nil && n >= 200 && n < 600 {
			p.Code = mail.ReplyCode(n)
			s = s[3:]
			if len(s) > 0 && (s[0] == '-' || s[0] == ' ') {
				s = s[1:]
			}
		}
	}
	rest := s
	if i := strings.IndexByte(s, ' '); i > 0 {
		if e, ok := enh(s[:i]); ok {
			p.Enh = e
			rest = s[i+1:]
		}
	} else if e, ok := enh(s); ok {
		p.Enh = e
		rest = ""
	}
	p.Text = strings.TrimSpace(rest)
	return p
}

// FuzzParseMatchesSplit: for any line, Parse — reply code and
// enhanced code read in place — decomposes it exactly as the
// Atoi-and-Split parse does, signs, leading zeros and overflow included.
func FuzzParseMatchesSplit(f *testing.F) {
	for _, tp := range Catalog {
		f.Add(tp.Text)
	}
	for _, s := range []string{
		"", "5", "550", "550-5.1.1 x", "550 5.1.1", "  250 2.0.0 OK  ", "+55 5.1.1 x",
		"-50 x", "600 5.1.1 x", "199 5.1.1 x", "550 +5.-0.1 x", "550 5.1 x", "550 5.1.1.1 x",
		"550 5..1 x", "550 5.1000.1 x", "550 5.0999.0001 x", "550 3.1.1 x", "5.7.1 no code",
		"550 5.1.99999999999999999999 x", "550\t5.1.1 x", "x55 5.1.1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if got, want := Parse(line), parseBySplit(line); got != want {
			t.Errorf("Parse(%q) = %+v, by Split %+v", line, got, want)
		}
	})
}

// TestHasEnhancedCodeAllocatesNothing: the enhanced-code collector asks
// this of every bounce line; with and without a code it stays off the
// heap.
func TestHasEnhancedCodeAllocatesNothing(t *testing.T) {
	for _, line := range []string{
		"550 5.1.1 <bob@example.com>: Recipient address rejected: User unknown",
		"550-5.7.1 [203.0.113.9] Our system has detected an unusual rate",
		"554 IP 203.0.113.9 listed at zen.spamhaus.org",
		"Connection timed out after 300 seconds",
	} {
		if n := testing.AllocsPerRun(100, func() { HasEnhancedCode(line) }); n != 0 {
			t.Errorf("HasEnhancedCode(%q): %v allocations, want 0", line, n)
		}
	}
}
