package smtp

import (
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/mail"
)

// Client is an SMTP client connection.
type Client struct {
	conn    net.Conn
	r       *lineReader
	timeout time.Duration
	ext     map[string]string // EHLO extensions, e.g. "STARTTLS" -> ""
	tls     bool
}

// Dial connects to an SMTP server and consumes the greeting.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("smtp: dial %s: %w", addr, err)
	}
	c := &Client{conn: conn, r: newLineReader(conn), timeout: timeout}
	rep, err := c.readReply()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !rep.Success() {
		conn.Close()
		return nil, fmt.Errorf("smtp: greeting: %s", rep)
	}
	return c, nil
}

// Hello sends EHLO and records the advertised extensions.
func (c *Client) Hello(hostname string) (*Reply, error) {
	rep, err := c.cmd("EHLO " + hostname)
	if err != nil {
		return nil, err
	}
	c.ext = map[string]string{}
	for i, line := range rep.Lines {
		if i == 0 {
			continue
		}
		name, arg, _ := strings.Cut(line, " ")
		c.ext[strings.ToUpper(name)] = arg
	}
	return rep, nil
}

// Extension reports whether the server advertised ext and its argument.
func (c *Client) Extension(ext string) (bool, string) {
	arg, ok := c.ext[strings.ToUpper(ext)]
	return ok, arg
}

// TLSActive reports whether STARTTLS has completed.
func (c *Client) TLSActive() bool { return c.tls }

// StartTLS upgrades the connection (RFC 3207) and re-issues EHLO.
func (c *Client) StartTLS(cfg *tls.Config, hostname string) (*Reply, error) {
	rep, err := c.cmd("STARTTLS")
	if err != nil {
		return nil, err
	}
	if !rep.Success() {
		return rep, nil
	}
	tconn := tls.Client(c.conn, cfg)
	if err := tconn.Handshake(); err != nil {
		return nil, fmt.Errorf("smtp: TLS handshake: %w", err)
	}
	c.conn = tconn
	c.r = newLineReader(tconn)
	c.tls = true
	return c.Hello(hostname)
}

// Mail sends MAIL FROM.
func (c *Client) Mail(from string) (*Reply, error) {
	return c.cmd("MAIL FROM:<" + from + ">")
}

// Rcpt sends RCPT TO.
func (c *Client) Rcpt(to string) (*Reply, error) {
	return c.cmd("RCPT TO:<" + to + ">")
}

// Data sends the DATA phase with dot-stuffing and returns the final
// acceptance reply.
func (c *Client) Data(payload []byte) (*Reply, error) {
	rep, err := c.cmd("DATA")
	if err != nil {
		return nil, err
	}
	if rep.Code != mail.CodeStartData {
		return rep, nil
	}
	var b strings.Builder
	lines := strings.Split(string(payload), "\n")
	// A trailing newline in the payload terminates the last line; it
	// must not become an extra blank line on the wire.
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	for _, line := range lines {
		line = strings.TrimRight(line, "\r")
		if strings.HasPrefix(line, ".") {
			b.WriteByte('.')
		}
		b.WriteString(line)
		b.WriteString("\r\n")
	}
	b.WriteString(".\r\n")
	c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	if _, err := io.WriteString(c.conn, b.String()); err != nil {
		return nil, err
	}
	return c.readReply()
}

// Quit sends QUIT and closes the connection.
func (c *Client) Quit() error {
	c.cmd("QUIT")
	return c.conn.Close()
}

// Close drops the connection without QUIT.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) cmd(line string) (*Reply, error) {
	c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	if _, err := io.WriteString(c.conn, line+"\r\n"); err != nil {
		return nil, err
	}
	return c.readReply()
}

func (c *Client) readReply() (*Reply, error) {
	rep := &Reply{}
	for {
		c.conn.SetReadDeadline(time.Now().Add(c.timeout))
		line, err := c.r.ReadLine()
		if err != nil {
			return nil, err
		}
		if len(line) < 3 {
			return nil, fmt.Errorf("smtp: short reply %q", line)
		}
		code, err := strconv.Atoi(line[:3])
		if err != nil {
			return nil, fmt.Errorf("smtp: bad reply %q", line)
		}
		rep.Code = mail.ReplyCode(code)
		cont := len(line) > 3 && line[3] == '-'
		text := ""
		if len(line) > 4 {
			text = line[4:]
		}
		if len(rep.Lines) == 0 {
			// Try to lift a leading enhanced code out of the text.
			if i := strings.IndexByte(text, ' '); i > 0 {
				if e, ok := mail.ParseEnhancedCode(text[:i]); ok {
					rep.Enh = e
					text = text[i+1:]
				}
			}
		}
		rep.Lines = append(rep.Lines, text)
		if !cont {
			return rep, nil
		}
	}
}

// SendOptions tunes SendMail.
type SendOptions struct {
	Helo      string
	TLSConfig *tls.Config // used when the server requires/offers TLS
	ForceTLS  bool        // always attempt STARTTLS when offered
	Timeout   time.Duration
}

// SendMail performs one complete delivery attempt against addr and
// returns the decisive reply (the first rejection, or the final DATA
// acceptance). It mimics Coremail's compatibility behaviour from
// Section 4.3.1: it starts in plaintext and upgrades to STARTTLS only
// when the server mandates it (530/550 5.7.x after MAIL) or when
// ForceTLS is set.
func SendMail(addr, from, to string, payload []byte, opts SendOptions) (*Reply, error) {
	if opts.Helo == "" {
		opts.Helo = "proxy.sender.example"
	}
	c, err := Dial(addr, opts.Timeout)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if _, err := c.Hello(opts.Helo); err != nil {
		return nil, err
	}
	if opts.ForceTLS {
		if ok, _ := c.Extension("STARTTLS"); ok && opts.TLSConfig != nil {
			if _, err := c.StartTLS(opts.TLSConfig, opts.Helo); err != nil {
				return nil, err
			}
		}
	}
	rep, err := c.Mail(from)
	if err != nil {
		return nil, err
	}
	if !rep.Success() {
		// TLS-mandating servers reject MAIL with 530: upgrade and retry,
		// like Coremail's immediate STARTTLS redelivery.
		if rep.Code == 530 && opts.TLSConfig != nil && !c.TLSActive() {
			if ok, _ := c.Extension("STARTTLS"); ok {
				if _, err := c.StartTLS(opts.TLSConfig, opts.Helo); err != nil {
					return nil, err
				}
				if rep, err = c.Mail(from); err != nil {
					return nil, err
				}
				if !rep.Success() {
					return rep, nil
				}
				goto rcpt
			}
		}
		return rep, nil
	}
rcpt:
	rep, err = c.Rcpt(to)
	if err != nil {
		return nil, err
	}
	if !rep.Success() {
		return rep, nil
	}
	rep, err = c.Data(payload)
	if err != nil {
		return nil, err
	}
	c.Quit()
	return rep, nil
}
