package smtp

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mail"
)

// startServer launches a server on an ephemeral loopback port and
// returns its address.
func startServer(t *testing.T, b Backend) string {
	t.Helper()
	s := NewServer(b)
	if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s.Addr().String()
}

func TestBasicDelivery(t *testing.T) {
	var mu sync.Mutex
	var gotFrom, gotTo, gotData string
	addr := startServer(t, Backend{
		Hostname: "mx1.b.com",
		OnData: func(s *Session, data []byte) *Reply {
			mu.Lock()
			defer mu.Unlock()
			gotFrom, gotTo, gotData = s.From, s.Rcpts[0], string(data)
			return nil
		},
	})
	rep, err := SendMail(addr, "alice@a.com", "bob@b.com", []byte("Subject: hi\n\nhello\n.leading dot\n"), SendOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success() {
		t.Fatalf("delivery failed: %s", rep)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotFrom != "alice@a.com" || gotTo != "bob@b.com" {
		t.Errorf("envelope = %q -> %q", gotFrom, gotTo)
	}
	if !strings.Contains(gotData, ".leading dot") {
		t.Errorf("dot-unstuffing failed: %q", gotData)
	}
}

func TestEhloExtensions(t *testing.T) {
	serverTLS, _ := newTestTLS(t)
	addr := startServer(t, Backend{MaxSize: 1 << 20, TLSConfig: serverTLS})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	if _, err := c.Hello("client.example"); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{"STARTTLS", "SIZE", "PIPELINING"} {
		if ok, _ := c.Extension(ext); !ok {
			t.Errorf("extension %s not advertised (have %v)", ext, c.ext)
		}
	}
	if _, arg := c.Extension("SIZE"); arg != "1048576" {
		t.Errorf("SIZE = %q", arg)
	}
}

func TestStartTLSUpgrade(t *testing.T) {
	serverTLS, clientTLS := newTestTLS(t)
	addr := startServer(t, Backend{TLSConfig: serverTLS})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	if _, err := c.Hello("client.example"); err != nil {
		t.Fatal(err)
	}
	rep, err := c.StartTLS(clientTLS, "client.example")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success() || !c.TLSActive() {
		t.Fatalf("TLS upgrade failed: %s", rep)
	}
	// STARTTLS must disappear from the post-upgrade EHLO.
	if ok, _ := c.Extension("STARTTLS"); ok {
		t.Error("STARTTLS still advertised after upgrade")
	}
	// And mail must flow over TLS.
	if rep, _ := c.Mail("a@a.com"); !rep.Success() {
		t.Errorf("MAIL over TLS: %s", rep)
	}
}

func TestRequireTLSMandate(t *testing.T) {
	// An 11K-domain behaviour from the paper: the receiver mandates TLS,
	// so plaintext MAIL is rejected and the client must upgrade.
	serverTLS, clientTLS := newTestTLS(t)
	addr := startServer(t, Backend{TLSConfig: serverTLS, RequireTLS: true})

	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Hello("client.example")
	rep, err := c.Mail("a@a.com")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != 530 {
		t.Fatalf("plaintext MAIL: %s, want 530", rep)
	}
	c.Quit()

	// SendMail's Coremail-style fallback: plaintext first, upgrade on 530.
	rep, err = SendMail(addr, "a@a.com", "b@b.com", []byte("hi"), SendOptions{
		TLSConfig: clientTLS, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success() {
		t.Fatalf("TLS fallback delivery failed: %s", rep)
	}
}

func TestRequireTLSWithoutClientTLSBounces(t *testing.T) {
	// A sender MTA without STARTTLS support soft-bounces at TLS-mandating
	// domains (T4, 572K emails in the paper).
	serverTLS, _ := newTestTLS(t)
	addr := startServer(t, Backend{TLSConfig: serverTLS, RequireTLS: true})
	rep, err := SendMail(addr, "a@a.com", "b@b.com", []byte("hi"), SendOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != 530 {
		t.Errorf("want 530 TLS-required bounce, got %s", rep)
	}
}

func TestPolicyRejections(t *testing.T) {
	addr := startServer(t, Backend{
		OnConnect: func(s *Session) *Reply {
			if s.RemoteAddr == "192.0.2.1" { // never matches loopback
				return NewReply(554, mail.EnhancedCode{}, "blocked")
			}
			return nil
		},
		OnMail: func(s *Session, from string) *Reply {
			if strings.HasSuffix(from, "@spammer.example") {
				return FromNDRLine("554 Service unavailable; Client host [1.2.3.4] blocked using Spamhaus")
			}
			return nil
		},
		OnRcpt: func(s *Session, from, to string) *Reply {
			if strings.HasPrefix(to, "ghost@") {
				return NewReply(550, mail.EnhBadMailbox, "user does not exist")
			}
			if strings.HasPrefix(to, "full@") {
				return NewReply(452, mail.EnhMailboxFull, "The email account that you tried to reach is over quota")
			}
			return nil
		},
		OnData: func(s *Session, data []byte) *Reply {
			if strings.Contains(string(data), "crypto-double") {
				return NewReply(550, mail.EnhSecurityPolicy, "Message contains spam or virus.")
			}
			return nil
		},
	})

	cases := []struct {
		from, to, body string
		wantCode       mail.ReplyCode
	}{
		{"ok@a.com", "bob@b.com", "hello", 250},
		{"x@spammer.example", "bob@b.com", "hello", 554},
		{"ok@a.com", "ghost@b.com", "hello", 550},
		{"ok@a.com", "full@b.com", "hello", 452},
		{"ok@a.com", "bob@b.com", "buy crypto-double now", 550},
	}
	for _, c := range cases {
		rep, err := SendMail(addr, c.from, c.to, []byte(c.body), SendOptions{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("%s->%s: %v", c.from, c.to, err)
		}
		if rep.Code != c.wantCode {
			t.Errorf("%s->%s: code %d want %d (%s)", c.from, c.to, rep.Code, c.wantCode, rep)
		}
	}
}

func TestBadSequence(t *testing.T) {
	addr := startServer(t, Backend{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	c.Hello("x")
	if rep, _ := c.Rcpt("b@b.com"); rep.Code != mail.CodeBadSequence {
		t.Errorf("RCPT before MAIL: %s", rep)
	}
	if rep, _ := c.Data(nil); rep.Code != mail.CodeBadSequence {
		t.Errorf("DATA before RCPT: %s", rep)
	}
}

func TestMaxSizeRejection(t *testing.T) {
	addr := startServer(t, Backend{MaxSize: 100})
	big := strings.Repeat("x", 500)
	rep, err := SendMail(addr, "a@a.com", "b@b.com", []byte(big), SendOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != mail.CodeExceededQuota {
		t.Errorf("oversized message: %s want 552", rep)
	}
}

func TestVRFYDisabled(t *testing.T) {
	// RFC 2505: VRFY must not disclose user existence (the paper notes
	// attackers fall back to NDR probing because of this).
	addr := startServer(t, Backend{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	c.Hello("x")
	rep, err := c.cmd("VRFY bob")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != 252 {
		t.Errorf("VRFY: %s want 252", rep)
	}
}

func TestRsetClearsState(t *testing.T) {
	addr := startServer(t, Backend{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	c.Hello("x")
	c.Mail("a@a.com")
	c.Rcpt("b@b.com")
	if rep, _ := c.cmd("RSET"); !rep.Success() {
		t.Fatalf("RSET: %s", rep)
	}
	if rep, _ := c.Data(nil); rep.Code != mail.CodeBadSequence {
		t.Errorf("DATA after RSET: %s", rep)
	}
}

func TestUnknownCommand(t *testing.T) {
	addr := startServer(t, Backend{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	rep, err := c.cmd("BOGUS")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != mail.CodeSyntaxError {
		t.Errorf("BOGUS: %s", rep)
	}
}

func TestParsePath(t *testing.T) {
	cases := []struct {
		arg, keyword, want string
		ok                 bool
	}{
		{"FROM:<a@b.com>", "FROM", "a@b.com", true},
		{"from:<a@b.com> SIZE=100", "FROM", "a@b.com", true},
		{"TO:<b@c.com>", "TO", "b@c.com", true},
		{"TO:b@c.com", "TO", "b@c.com", true},
		{"TO:<>", "TO", "", true}, // null return path
		{"FROM:<unclosed", "FROM", "", false},
		{"TO:", "TO", "", false},
		{"WRONG:<a@b.com>", "FROM", "", false},
	}
	for _, c := range cases {
		got, ok := parsePath(c.arg, c.keyword)
		if ok != c.ok || got != c.want {
			t.Errorf("parsePath(%q,%q)=(%q,%v) want (%q,%v)", c.arg, c.keyword, got, ok, c.want, c.ok)
		}
	}
}

func TestFromNDRLine(t *testing.T) {
	rep := FromNDRLine("550-5.1.1 bob@b.com Email address could not be found")
	if rep.Code != 550 || rep.Enh != mail.EnhBadMailbox {
		t.Errorf("FromNDRLine: %+v", rep)
	}
	rep = FromNDRLine("554 Service unavailable")
	if rep.Code != 554 || !rep.Enh.IsZero() {
		t.Errorf("FromNDRLine no-enh: %+v", rep)
	}
	rep = FromNDRLine("garbage")
	if rep.Code != mail.CodeTransactFailed {
		t.Errorf("FromNDRLine fallback: %+v", rep)
	}
}

func TestReplyStringAndWire(t *testing.T) {
	r := NewReply(550, mail.EnhBadMailbox, "no such user")
	if got := r.String(); got != "550 5.1.1 no such user" {
		t.Errorf("String = %q", got)
	}
	multi := &Reply{Code: 250, Lines: []string{"mx greets you", "PIPELINING", "SIZE 100"}}
	wire := multi.wire()
	if !strings.Contains(wire, "250-mx greets you\r\n") || !strings.HasSuffix(wire, "250 SIZE 100\r\n") {
		t.Errorf("wire = %q", wire)
	}
}

func TestHeloCompatibility(t *testing.T) {
	addr := startServer(t, Backend{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	rep, err := c.cmd("HELO old.client")
	if err != nil || !rep.Success() {
		t.Fatalf("HELO: %v %s", err, rep)
	}
}

func TestConcurrentSessions(t *testing.T) {
	addr := startServer(t, Backend{})
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := SendMail(addr, "a@a.com", "b@b.com", []byte("hello"), SendOptions{Timeout: 5 * time.Second})
			if err != nil {
				errs <- err
				return
			}
			if !rep.Success() {
				errs <- fmt.Errorf("delivery to %s failed: %s", addr, rep)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDataDotStuffingRoundTripProperty(t *testing.T) {
	// Property: any payload the client sends over DATA arrives intact
	// (modulo CRLF normalization to \n), including dot-prefixed lines.
	var mu sync.Mutex
	var got string
	addr := startServer(t, Backend{
		OnData: func(s *Session, data []byte) *Reply {
			mu.Lock()
			got = string(data)
			mu.Unlock()
			return nil
		},
	})
	f := func(lines []string) bool {
		var payload strings.Builder
		for _, l := range lines {
			clean := strings.Map(func(r rune) rune {
				if r == '\r' || r == '\n' || r > 126 || r < 32 {
					return 'x'
				}
				return r
			}, l)
			if len(clean) > 60 {
				clean = clean[:60]
			}
			payload.WriteString(clean)
			payload.WriteString("\n")
		}
		payload.WriteString(".leading dot line\n..double\n")
		rep, err := SendMail(addr, "a@a.com", "b@b.com", []byte(payload.String()), SendOptions{Timeout: 5 * time.Second})
		if err != nil || !rep.Success() {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		return got == payload.String()
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
