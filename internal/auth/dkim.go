package auth

import (
	"crypto/ed25519"
	"encoding/base64"
	"fmt"
	"strings"
	"time"

	"repro/internal/dns"
)

// DKIMResult is the outcome of verifying a DKIM signature.
type DKIMResult int

// DKIM results.
const (
	DKIMNone DKIMResult = iota
	DKIMPass
	DKIMFail
	DKIMTempError
	DKIMPermError
)

// String returns the conventional result name.
func (r DKIMResult) String() string {
	switch r {
	case DKIMNone:
		return "none"
	case DKIMPass:
		return "pass"
	case DKIMFail:
		return "fail"
	case DKIMTempError:
		return "temperror"
	case DKIMPermError:
		return "permerror"
	}
	return "?"
}

// Pass reports whether the signature verified.
func (r DKIMResult) Pass() bool { return r == DKIMPass }

// Signature is a DKIM-style detached signature over a message digest.
// The simulation signs the message ID plus envelope fields (it never has
// bodies); the cryptography is real Ed25519 (RFC 8463 permits Ed25519
// DKIM keys), so broken published keys genuinely fail verification.
// The receivers' auth stage signs and verifies only when SPF has not
// passed: a message passes when either does, so only then can DKIM
// decide the verdict.
type Signature struct {
	Domain   string // d= tag
	Selector string // s= tag
	Sig      []byte // b= tag value
}

// Signer signs outgoing mail for one domain.
type Signer struct {
	Domain   string
	Selector string
	priv     ed25519.PrivateKey
	pub      ed25519.PublicKey
}

// NewSigner creates a signing identity for domain with the given
// selector, deriving the key pair from the supplied 32-byte seed so the
// world generator stays deterministic.
func NewSigner(domain, selector string, seed [32]byte) *Signer {
	priv := ed25519.NewKeyFromSeed(seed[:])
	return &Signer{
		Domain:   domain,
		Selector: selector,
		priv:     priv,
		pub:      priv.Public().(ed25519.PublicKey),
	}
}

// TXTRecord returns the DNS TXT value to publish at
// selector._domainkey.domain.
func (s *Signer) TXTRecord() string {
	return "v=DKIM1; k=ed25519; p=" + base64.StdEncoding.EncodeToString(s.pub)
}

// BrokenTXTRecord returns a record with a corrupted public key, used by
// misconfiguration episodes: it parses, but every verification fails.
func (s *Signer) BrokenTXTRecord() string {
	bad := make([]byte, len(s.pub))
	copy(bad, s.pub)
	bad[0] ^= 0xff
	bad[len(bad)-1] ^= 0xff
	return "v=DKIM1; k=ed25519; p=" + base64.StdEncoding.EncodeToString(bad)
}

// RecordName returns the DNS owner name the key lives at.
func (s *Signer) RecordName() string {
	return s.Selector + "._domainkey." + s.Domain
}

// Sign produces the signature over the canonical payload for msgID.
func (s *Signer) Sign(msgID string) Signature {
	return Signature{
		Domain:   s.Domain,
		Selector: s.Selector,
		Sig:      ed25519.Sign(s.priv, canonicalPayload(s.Domain, msgID)),
	}
}

func canonicalPayload(domain, msgID string) []byte {
	return []byte("dkim\x00" + domain + "\x00" + msgID)
}

// DKIMVerifier verifies signatures against keys published in the
// simulated DNS. Lookup (the DNS query) and Check (the Ed25519
// verification) are separate calls, so a caller that may not need the
// verdict can still make the query, which moves the resolver's cache
// and transient-failure draws, and skip the cryptography.
type DKIMVerifier struct {
	Resolver *dns.Resolver
}

// DKIMKey is the outcome of looking up a signing key: a public key to
// Check signatures against, or the result every signature gets
// because no usable key was found.
type DKIMKey struct {
	pub ed25519.PublicKey
	res DKIMResult
}

// Lookup resolves the key published at selector._domainkey.domain at
// virtual time t. The first TXT record that parses as a DKIM key is
// the key; a name with none is a permerror.
func (v *DKIMVerifier) Lookup(domain, selector string, t time.Time) DKIMKey {
	txts, code := v.Resolver.ResolveTXT(selector+"._domainkey."+domain, t)
	switch code {
	case dns.NoError:
	case dns.NXDomain:
		return DKIMKey{res: DKIMPermError} // no key published
	default:
		return DKIMKey{res: DKIMTempError}
	}
	for _, txt := range txts {
		if pub, err := parseDKIMKey(txt); err == nil {
			return DKIMKey{pub: pub}
		}
	}
	return DKIMKey{res: DKIMPermError}
}

// Check verifies sig over msgID against the key.
func (k DKIMKey) Check(sig Signature, msgID string) DKIMResult {
	if k.pub == nil {
		return k.res
	}
	if ed25519.Verify(k.pub, canonicalPayload(sig.Domain, msgID), sig.Sig) {
		return DKIMPass
	}
	return DKIMFail
}

// Verify checks sig over msgID at virtual time t: Lookup of the key
// sig names, then Check.
func (v *DKIMVerifier) Verify(sig Signature, msgID string, t time.Time) DKIMResult {
	if sig.Domain == "" || len(sig.Sig) == 0 {
		return DKIMNone
	}
	return v.Lookup(sig.Domain, sig.Selector, t).Check(sig, msgID)
}

// parseDKIMKey extracts the Ed25519 public key from a DKIM TXT record.
func parseDKIMKey(txt string) (ed25519.PublicKey, error) {
	if !strings.Contains(txt, "v=DKIM1") {
		return nil, fmt.Errorf("auth: not a DKIM record")
	}
	for _, part := range strings.Split(txt, ";") {
		part = strings.TrimSpace(part)
		if rest, ok := strings.CutPrefix(part, "p="); ok {
			raw, err := base64.StdEncoding.DecodeString(rest)
			if err != nil {
				return nil, fmt.Errorf("auth: bad key encoding: %w", err)
			}
			if len(raw) != ed25519.PublicKeySize {
				return nil, fmt.Errorf("auth: bad key size %d", len(raw))
			}
			return ed25519.PublicKey(raw), nil
		}
	}
	return nil, fmt.Errorf("auth: no p= tag")
}
