package mail

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAddress(t *testing.T) {
	cases := []struct {
		in      string
		want    Address
		wantErr bool
	}{
		{"alice@a.com", Address{"alice", "a.com"}, false},
		{"Bob.Smith@B.COM", Address{"Bob.Smith", "b.com"}, false},
		{"x@y", Address{"x", "y"}, false},
		{"weird@@double.com", Address{"weird@", "double.com"}, false}, // last @ wins
		{"noat", Address{}, true},
		{"@nodomainlocal.com", Address{}, true},
		{"nolocal@", Address{}, true},
		{"spa ce@x.com", Address{}, true},
		{"a@dom ain.com", Address{}, true},
		{"", Address{}, true},
	}
	for _, c := range cases {
		got, err := ParseAddress(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseAddress(%q) err=%v wantErr=%v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseAddress(%q)=%v want %v", c.in, got, c.want)
		}
	}
}

func TestAddressRoundTrip(t *testing.T) {
	f := func(local, domain string) bool {
		if local == "" || domain == "" {
			return true
		}
		if strings.ContainsAny(local, " \t\r\n") || strings.ContainsAny(domain, " \t\r\n@") {
			return true
		}
		a := Address{Local: local, Domain: strings.ToLower(domain)}
		got, err := ParseAddress(a.String())
		return err == nil && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddressIsZero(t *testing.T) {
	if !(Address{}).IsZero() {
		t.Error("zero Address should report IsZero")
	}
	if (Address{Local: "a", Domain: "b"}).IsZero() {
		t.Error("non-zero Address should not report IsZero")
	}
}

func TestReplyCodeClasses(t *testing.T) {
	cases := []struct {
		code               ReplyCode
		success, temporary bool
	}{
		{CodeOK, true, false},
		{CodeReady, true, false},
		{421, false, true},
		{452, false, true},
		{550, false, false},
		{CodeTransactFailed, false, false},
		{CodeStartData, false, false},
	}
	for _, c := range cases {
		if got := c.code.Success(); got != c.success {
			t.Errorf("%d.Success()=%v want %v", c.code, got, c.success)
		}
		if got := c.code.Temporary(); got != c.temporary {
			t.Errorf("%d.Temporary()=%v want %v", c.code, got, c.temporary)
		}
	}
}

func TestEnhancedCodeString(t *testing.T) {
	if got := EnhMailboxFull.String(); got != "4.2.2" {
		t.Errorf("EnhMailboxFull.String()=%q want 4.2.2", got)
	}
	if got := (EnhancedCode{5, 7, 26}).String(); got != "5.7.26" {
		t.Errorf("5.7.26.String()=%q", got)
	}
}

func TestParseEnhancedCode(t *testing.T) {
	cases := []struct {
		in   string
		want EnhancedCode
		ok   bool
	}{
		{"4.2.2", EnhMailboxFull, true},
		{"5.7.26", EnhancedCode{5, 7, 26}, true},
		{"2.0.0", EnhOK, true},
		{"3.1.1", EnhancedCode{}, false}, // class 3 invalid
		{"5.7", EnhancedCode{}, false},
		{"5.7.26.1", EnhancedCode{}, false},
		{"a.b.c", EnhancedCode{}, false},
		{"", EnhancedCode{}, false},
		{"5.-1.2", EnhancedCode{}, false},
	}
	for _, c := range cases {
		got, ok := ParseEnhancedCode(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("ParseEnhancedCode(%q)=(%v,%v) want (%v,%v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestEnhancedCodeParseRoundTrip(t *testing.T) {
	f := func(class, subject, detail uint8) bool {
		cl := []int{2, 4, 5}[int(class)%3]
		e := EnhancedCode{Class: cl, Subject: int(subject) % 8, Detail: int(detail) % 100}
		got, ok := ParseEnhancedCode(e.String())
		return ok && got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMessageIsSpam(t *testing.T) {
	m := &Message{Flag: FlagSpam}
	if !m.IsSpam() {
		t.Error("FlagSpam message should report IsSpam")
	}
	m.Flag = FlagNormal
	if m.IsSpam() {
		t.Error("FlagNormal message should not report IsSpam")
	}
}
