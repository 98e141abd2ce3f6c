// Package mail provides the core email data model shared by every
// subsystem in the reproduction: addresses, messages, SMTP reply codes and
// RFC 3463 enhanced mail system status codes.
package mail

import (
	"errors"
	"fmt"
	"strings"
)

// Address is a parsed email address. Local is the part before '@'
// (the username in the paper's terminology) and Domain the part after.
type Address struct {
	Local  string
	Domain string
}

// ErrBadAddress is returned by ParseAddress for syntactically invalid input.
var ErrBadAddress = errors.New("mail: malformed address")

// ParseAddress splits addr at the last '@'. It performs the light-weight
// validation an MTA does at RCPT time (non-empty local part and domain,
// no spaces, domain contains a dot or is a bare label).
func ParseAddress(addr string) (Address, error) {
	at := strings.LastIndexByte(addr, '@')
	if at <= 0 || at == len(addr)-1 {
		return Address{}, fmt.Errorf("%w: %q", ErrBadAddress, addr)
	}
	local, domain := addr[:at], addr[at+1:]
	if strings.ContainsAny(local, " \t\r\n") || strings.ContainsAny(domain, " \t\r\n@") {
		return Address{}, fmt.Errorf("%w: %q", ErrBadAddress, addr)
	}
	return Address{Local: local, Domain: strings.ToLower(domain)}, nil
}

// String renders the address as local@domain.
func (a Address) String() string { return a.Local + "@" + a.Domain }

// IsZero reports whether the address is the zero value.
func (a Address) IsZero() bool { return a.Local == "" && a.Domain == "" }
