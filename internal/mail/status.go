package mail

import (
	"fmt"
	"strings"
)

// ReplyCode is a three-digit SMTP reply code (RFC 5321 §4.2).
type ReplyCode int

// Common reply codes used by the simulator and the SMTP substrate.
const (
	CodeReady          ReplyCode = 220
	CodeClosing        ReplyCode = 221
	CodeOK             ReplyCode = 250
	CodeStartData      ReplyCode = 354
	CodeSyntaxError    ReplyCode = 500
	CodeParamError     ReplyCode = 501
	CodeNotImplemented ReplyCode = 502
	CodeBadSequence    ReplyCode = 503
	CodeExceededQuota  ReplyCode = 552
	CodeNameNotAllowed ReplyCode = 553
	CodeTransactFailed ReplyCode = 554
)

// Temporary reports whether the reply code signals a transient (4xx)
// failure that the sender should retry.
func (c ReplyCode) Temporary() bool { return c >= 400 && c < 500 }

// Success reports whether the reply code signals success (2xx).
func (c ReplyCode) Success() bool { return c >= 200 && c < 300 }

// EnhancedCode is an RFC 3463 enhanced mail system status code
// (class.subject.detail, e.g. 4.2.2 for "mailbox full").
type EnhancedCode struct {
	Class   int // 2 success, 4 persistent transient, 5 permanent
	Subject int
	Detail  int
}

// Enhanced status codes the NDR templates reference. Names follow the
// RFC 3463 subject/detail registry.
var (
	EnhOK             = EnhancedCode{2, 0, 0}
	EnhBadMailbox     = EnhancedCode{5, 1, 1} // bad destination mailbox address
	EnhMailboxFull    = EnhancedCode{4, 2, 2} // mailbox full
	EnhMsgTooBig      = EnhancedCode{5, 3, 4} // message too big for system
	EnhNetworkError   = EnhancedCode{4, 4, 1} // no answer from host
	EnhSecurityPolicy = EnhancedCode{5, 7, 1} // delivery not authorized
	EnhTLSRequired    = EnhancedCode{5, 7, 10}
)

// IsZero reports whether e is unset. The paper finds 28.79% of NDR
// messages carry no enhanced status code; those render with a zero code.
func (e EnhancedCode) IsZero() bool { return e.Class == 0 }

// String renders class.subject.detail.
func (e EnhancedCode) String() string {
	return fmt.Sprintf("%d.%d.%d", e.Class, e.Subject, e.Detail)
}

// ParseEnhancedCode parses "c.s.d". It returns ok=false for strings that
// are not an enhanced status code (the common case for 28.79% of NDRs).
// Each part reads as strconv.Atoi reads it, bounded to 0..999; the
// parse is in place and allocates nothing.
func ParseEnhancedCode(s string) (EnhancedCode, bool) {
	var vals [3]int
	for i := range vals {
		part, rest, dot := strings.Cut(s, ".")
		if dot != (i < 2) {
			return EnhancedCode{}, false // not three parts
		}
		n, ok := codePart(part)
		if !ok {
			return EnhancedCode{}, false
		}
		vals[i], s = n, rest
	}
	if vals[0] != 2 && vals[0] != 4 && vals[0] != 5 {
		return EnhancedCode{}, false
	}
	return EnhancedCode{vals[0], vals[1], vals[2]}, true
}

// codePart is strconv.Atoi(p) for a result in 0..999: an optional
// sign, then decimal digits.
func codePart(p string) (int, bool) {
	neg := false
	if p != "" && (p[0] == '+' || p[0] == '-') {
		neg, p = p[0] == '-', p[1:]
	}
	if p == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(p); i++ {
		if p[i] < '0' || p[i] > '9' {
			return 0, false
		}
		if n = n*10 + int(p[i]-'0'); n > 999 {
			return 0, false
		}
	}
	return n, !neg || n == 0
}
