package security

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
)

// readKeyFile reads a key file's bytes with trailing whitespace
// trimmed.
func readKeyFile(keyFile string) ([]byte, error) {
	key, err := os.ReadFile(keyFile)
	if err != nil {
		return nil, err
	}
	key = bytes.TrimSpace(key)
	if len(key) == 0 {
		return nil, fmt.Errorf("key file %s is empty", keyFile)
	}
	return key, nil
}

// loadShared resolves the schemes that are one key file and nothing
// else: "none" (or "") is nil, "hmac" reads the shared key from keyFile
// (trailing whitespace trimmed). The per-subscriber "ident" scheme
// needs more context than a key file — which side of the exchange,
// which identity, which source address — so it is loaded per side;
// asking for it here is an error saying so. The one-way stream schemes
// (chain, HORS) sign a broadcast in one direction and cannot
// authenticate the subscriber side.
func loadShared(scheme, keyFile string) (*HMACAuth, error) {
	switch scheme {
	case "", "none":
		return nil, nil
	case "hmac":
		if keyFile == "" {
			return nil, fmt.Errorf("-auth hmac requires -key-file")
		}
		key, err := readKeyFile(keyFile)
		if err != nil {
			return nil, err
		}
		return NewHMAC(key), nil
	case "ident":
		return nil, fmt.Errorf("-auth ident is loaded per side (relay: master key file; client: -identity plus its credential file)")
	default:
		return nil, fmt.Errorf("unknown -auth scheme %q (want none, hmac, or ident)", scheme)
	}
}

// LoadControlAuth builds a client-side control-plane authenticator
// from the daemons' -auth/-key-file flags for the shared-key schemes:
// nil for "none", the HMAC authenticator for "hmac". "ident" is an
// error naming LoadRelayAuth / LoadClientAuth.
func LoadControlAuth(scheme, keyFile string) (Authenticator, error) {
	a, err := loadShared(scheme, keyFile)
	if a == nil {
		return nil, err // not a typed nil inside the interface
	}
	return a, nil
}

// LoadRelayAuth builds the verification side of the control plane: the
// shared-key schemes plus "ident", where keyFile holds the chain master
// key. The returned keyring is non-nil exactly for "ident" — the
// daemon uses it to mint subscriber credentials and to derive its own
// upstream-signing credential on a chained relay.
func LoadRelayAuth(scheme, keyFile string) (RelayAuthenticator, *Keyring, error) {
	if scheme != "ident" {
		a, err := loadShared(scheme, keyFile)
		if a == nil {
			return nil, nil, err
		}
		return a, nil, nil
	}
	if keyFile == "" {
		return nil, nil, fmt.Errorf("-auth ident requires -key-file (the chain master key)")
	}
	master, err := readKeyFile(keyFile)
	if err != nil {
		return nil, nil, err
	}
	ring := NewKeyring(master)
	return ring.Relay(), ring, nil
}

// LoadClientAuth builds the signing side of the control plane for a
// subscriber: LoadControlAuth plus "ident", where keyFile holds the
// subscriber's own hex-encoded credential (minted from the master key
// with FormatCredential — `relayd -mint-identity`), id is its
// -identity, and source is the UDP source address the relay will see
// (the tag binds it, so a wildcard bind will not verify). seqBase
// seeds the monotonic request sequence; restarting daemons pass
// wall-clock nanoseconds so a restart does not fall below the relay's
// replay window for the previous run.
func LoadClientAuth(scheme, keyFile string, id uint32, source string, seqBase uint64) (Authenticator, error) {
	if scheme != "ident" {
		return LoadControlAuth(scheme, keyFile)
	}
	if id == 0 {
		return nil, fmt.Errorf("-auth ident requires a nonzero -identity")
	}
	if keyFile == "" {
		return nil, fmt.Errorf("-auth ident requires -key-file (this subscriber's credential)")
	}
	raw, err := readKeyFile(keyFile)
	if err != nil {
		return nil, err
	}
	cred, err := hex.DecodeString(string(raw))
	if err != nil || len(cred) == 0 {
		return nil, fmt.Errorf("key file %s is not a hex credential (mint one with relayd -mint-identity)", keyFile)
	}
	return NewIdentitySignerAt(cred, id, source, seqBase), nil
}

// FormatCredential renders a credential for a subscriber key file.
func FormatCredential(cred []byte) string {
	return hex.EncodeToString(cred)
}
