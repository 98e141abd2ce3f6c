package ndr

import (
	"strings"

	"repro/internal/mail"
)

// Parsed is the machine-readable decomposition of one NDR line.
type Parsed struct {
	Code mail.ReplyCode    // 0 when the line carries no leading code
	Enh  mail.EnhancedCode // zero when absent (28.79% of messages)
	Text string            // remainder after code(s)
}

// Success reports whether the line is a 2xx acceptance.
func (p Parsed) Success() bool { return p.Code.Success() }

// Temporary reports whether the line is a 4xx transient failure.
func (p Parsed) Temporary() bool { return p.Code.Temporary() }

// Parse decomposes a delivery_result line: an optional leading 3-digit
// reply code (possibly joined to the enhanced code with '-'), an
// optional RFC 3463 enhanced status code, and free text. It tolerates
// the real-world format mess the paper documents in Appendix B.
func Parse(line string) Parsed {
	var p Parsed
	s := strings.TrimSpace(line)
	if len(s) >= 3 { // a leading reply code, 200–599
		if c0, c1, c2 := s[0], s[1], s[2]; c0 >= '2' && c0 <= '5' && isDigit(c1) && isDigit(c2) {
			p.Code = mail.ReplyCode(int(c0-'0')*100 + int(c1-'0')*10 + int(c2-'0'))
			s = s[3:]
			// "550-5.1.1 ..." or "550 5.1.1 ..." or "550 ...".
			if len(s) > 0 && (s[0] == '-' || s[0] == ' ') {
				s = s[1:]
			}
		}
	}
	// Try the first whitespace-delimited token as an enhanced code.
	rest := s
	if i := strings.IndexByte(s, ' '); i > 0 {
		if e, ok := mail.ParseEnhancedCode(s[:i]); ok {
			p.Enh = e
			rest = s[i+1:]
		}
	} else if e, ok := mail.ParseEnhancedCode(s); ok {
		p.Enh = e
		rest = ""
	}
	p.Text = strings.TrimSpace(rest)
	return p
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// HasEnhancedCode reports whether the raw line carries an enhanced
// status code, used to reproduce the paper's 28.79% statistic.
func HasEnhancedCode(line string) bool {
	return !Parse(line).Enh.IsZero()
}
