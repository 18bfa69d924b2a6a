// Package security implements the packet-authentication schemes the
// paper plans for the Ethernet Speaker (§5.1): speakers must not play
// audio from unauthorized sources, and the verification path must be
// cheap enough that an attacker cannot exhaust a speaker by flooding it
// with garbage ("digitally signing every audio packet is not feasible as
// it allows an attacker to overwhelm an ES").
//
// Three stream schemes are provided behind one wrapping format and one
// interface, Authenticator (Sign, Verify):
//
//   - HMAC: a shared group secret; fastest, but any group member can
//     forge (symmetric).
//   - Chain: hash-chain key release in the TESLA style — each packet is
//     MACed under the next key of a one-way chain whose anchor is
//     distributed out of band; receivers verify chain ancestry. Source
//     asymmetry depends on the delayed-release timing assumption, which
//     a single LAN satisfies loosely; see the type comment.
//   - HORS: a hash-based few-time signature (after Reyzin & Reyzin's
//     "Better than BiBa", the paper's citation [13]): large public keys
//     but very fast signing and verification compared to conventional
//     signatures.
//
// The relay control plane (the Subscribe and Pause requests that create
// and move forwarding state) is a request/response exchange, and has two
// sides. A relay verifies and answers through one interface,
// RelayAuthenticator — batch-shaped, source-aware, and able to say
// whether its scheme binds identities — with two implementations: the
// shared HMAC key (*HMACAuth: no identity, one keyed hash for a whole
// pass) and the per-subscriber identity scheme (Keyring.Relay: each
// request under its own credential, its UDP source in the tag, identity
// and sequence handed back for the relay's lease-holder check). The
// requesting side — a speaker, or a chained relay's own upstream lease —
// is a plain Authenticator: the same *HMACAuth, or an *IdentityAuth
// signing as one identity from one address.
//
// Wrapped packet format: inner || trailer || u16 trailerLen || u8 scheme.
package security
