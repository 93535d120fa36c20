package server

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"

	"repro/internal/store"
)

// nodeTagLen is the width, in hex characters, of the node tag that
// prefixes the job IDs of a worker configured with Config.SelfURL.
const nodeTagLen = 16

// NodeTag is the fixed-width tag that a worker advertising self puts in
// front of its job IDs: the first 16 hex characters of SHA-256(self).
// A coordinator compares it against NodeTag of each current member to
// find a job's owner without remembering anything per job.
func NodeTag(self string) string {
	sum := sha256.Sum256([]byte(self))
	return hex.EncodeToString(sum[:nodeTagLen/2])
}

// JobNodeTag returns the node tag of a tagged job ID ("<tag>-<key>-<n>",
// where key is the job's full 64-character cache key).
// ok is false for IDs minted without Config.SelfURL, and for any string
// that does not start with 16 lower-case hex characters and a dash.
func JobNodeTag(id string) (tag string, ok bool) {
	if len(id) <= nodeTagLen || id[nodeTagLen] != '-' {
		return "", false
	}
	for i := 0; i < nodeTagLen; i++ {
		if c := id[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", false
		}
	}
	return id[:nodeTagLen], true
}

// jobID names the seq-th job a server created, for cache key key. tag
// is the server's NodeTag, or empty for untagged IDs. Untagged IDs start
// with the 64-character key, so JobNodeTag never mistakes one for
// tagged.
func jobID(tag, key string, seq uint64) string {
	id := key + "-" + strconv.FormatUint(seq, 10)
	if tag == "" {
		return id
	}
	return tag + "-" + id
}

// parseJobID inverts jobID for a server whose tag is tag: it returns
// the cache key and sequence number of an ID that server could have
// minted.
func parseJobID(tag, id string) (key string, seq uint64, ok bool) {
	if tag != "" {
		rest, found := strings.CutPrefix(id, tag+"-")
		if !found {
			return "", 0, false
		}
		id = rest
	}
	key, n, found := strings.Cut(id, "-")
	if !found || !store.ValidKey(key) {
		return "", 0, false
	}
	seq, err := strconv.ParseUint(n, 10, 64)
	if err != nil || seq == 0 {
		return "", 0, false
	}
	return key, seq, true
}
