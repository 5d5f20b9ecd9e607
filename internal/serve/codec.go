package serve

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bits"
)

// This file holds the service's two binary encodings:
//
//   - the store envelope — the value the persistent cache keeps under a
//     canonical graph hash: uvarint φ, uvarint bit length, packed advice
//     bits. The envelope exists so a cache hit yields φ without decoding
//     the full advice structure.
//   - the wire response of POST /v1/advice.bin — one status/flags byte,
//     then the same envelope. (The wire request is simply the graph's
//     own binary format, graph.UnmarshalBinary.)
//
// Both decoders are total: arbitrary bytes produce an error, never a
// panic or a silently wrong advice string.

// respMagic opens every binary wire response.
var respMagic = [4]byte{'A', 'D', 'R', '1'}

// Flag bits of the binary response.
const (
	respFlagDegraded = 1 << 0 // served, but persistence failed (cache-write skipped)
	respCacheShift   = 1      // bits 1-2: cache source
	respCacheMask    = 0b11 << respCacheShift
)

// Cache-source values, also used verbatim in the JSON "cache" field.
const (
	CacheCold = "cold" // computed by the oracle on this request
	CacheWarm = "warm" // served from the persistent store (canonical-hash hit)
	CacheHot  = "hot"  // served from the in-memory request memo
)

var cacheCodes = map[string]byte{CacheCold: 0, CacheWarm: 1, CacheHot: 2}
var cacheNames = [...]string{CacheCold, CacheWarm, CacheHot}

// unpackBits reads the advice bits of an envelope, packed MSB-first by
// bits.String.AppendBytes, for a declared bit length. Padding bits must
// be zero, so every bit string has exactly one encoding.
func unpackBits(data []byte, n int) (bits.String, error) {
	s, err := bits.FromBytes(data, n)
	if err != nil {
		return bits.String{}, fmt.Errorf("serve: %w", err)
	}
	return s, nil
}

// encodeEnvelope serializes (φ, advice bits) for the store.
func encodeEnvelope(phi int, adv bits.String) []byte {
	buf := make([]byte, 0, 2+10+(adv.Len()+7)/8)
	buf = binary.AppendUvarint(buf, uint64(phi))
	buf = binary.AppendUvarint(buf, uint64(adv.Len()))
	return adv.AppendBytes(buf)
}

// decodeEnvelope inverts encodeEnvelope, rejecting any malformation.
func decodeEnvelope(data []byte) (phi int, adv bits.String, err error) {
	u, k := binary.Uvarint(data)
	if k <= 0 || u > 1<<31 {
		return 0, bits.String{}, fmt.Errorf("serve: bad envelope phi")
	}
	phi = int(u)
	data = data[k:]
	u, k = binary.Uvarint(data)
	if k <= 0 || u > 1<<34 {
		return 0, bits.String{}, fmt.Errorf("serve: bad envelope bit length")
	}
	adv, err = unpackBits(data[k:], int(u))
	if err != nil {
		return 0, bits.String{}, err
	}
	return phi, adv, nil
}

// wireResponseFromEnvelope frames an already-encoded envelope as a
// binary-endpoint response.
func wireResponseFromEnvelope(env []byte, cache string, degraded bool) []byte {
	var flags byte
	if degraded {
		flags |= respFlagDegraded
	}
	flags |= cacheCodes[cache] << respCacheShift
	buf := make([]byte, 0, 5+len(env))
	buf = append(buf, respMagic[:]...)
	buf = append(buf, flags)
	return append(buf, env...)
}

// encodeWireResponse serializes a successful binary-endpoint response.
func encodeWireResponse(phi int, adv bits.String, cache string, degraded bool) []byte {
	return wireResponseFromEnvelope(encodeEnvelope(phi, adv), cache, degraded)
}

// decodeWireResponse inverts encodeWireResponse (the client side).
func decodeWireResponse(data []byte) (phi int, adv bits.String, cache string, degraded bool, err error) {
	if len(data) < 5 || [4]byte(data[:4]) != respMagic {
		return 0, bits.String{}, "", false, fmt.Errorf("serve: bad response magic")
	}
	flags := data[4]
	if flags&^byte(respFlagDegraded|respCacheMask) != 0 {
		return 0, bits.String{}, "", false, fmt.Errorf("serve: unknown response flags %#x", flags)
	}
	code := (flags & respCacheMask) >> respCacheShift
	if int(code) >= len(cacheNames) {
		return 0, bits.String{}, "", false, fmt.Errorf("serve: unknown cache code %d", code)
	}
	phi, adv, err = decodeEnvelope(data[5:])
	if err != nil {
		return 0, bits.String{}, "", false, err
	}
	return phi, adv, cacheNames[code], flags&respFlagDegraded != 0, nil
}
