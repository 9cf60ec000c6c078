package core

import (
	"crypto/sha256"

	"energysched/internal/cache"
)

// InstanceKeys memoises Instance.Hash by the exact bytes an instance
// arrived in, so a service that sees the same encoded instance again
// derives its cache or routing key without decoding it. Entries are
// keyed by the sha256 of the raw bytes rather than the bytes
// themselves, which keeps an entry small whatever the instance size.
// Only successful decodes are stored: malformed bytes are decoded —
// and rejected with UnmarshalInstance's error — every time.
//
// Byte-different encodings of one instance (whitespace, edge order)
// occupy separate entries but map to the same Hash, so callers keying
// results by the returned hash still share one result entry.
//
// An InstanceKeys is safe for concurrent use.
type InstanceKeys struct {
	memo *cache.Cache[string]
}

// NewInstanceKeys returns a memo holding at most capacity entries (see
// cache.New for the rounding).
func NewInstanceKeys(capacity int) *InstanceKeys {
	return &InstanceKeys{memo: cache.New[string](capacity)}
}

// Key returns raw's canonical Hash. On a memo miss it decodes raw with
// UnmarshalInstance and returns the decoded instance as well, so the
// caller never decodes the same bytes twice; on a hit in is nil and a
// caller that needs the instance after all decodes it then. err is
// UnmarshalInstance's error, unchanged.
func (k *InstanceKeys) Key(raw []byte) (hash string, in *Instance, err error) {
	sum := sha256.Sum256(raw)
	digest := string(sum[:])
	if hash, ok := k.memo.Get(digest); ok {
		return hash, nil, nil
	}
	in, err = UnmarshalInstance(raw)
	if err != nil {
		return "", nil, err
	}
	hash = in.Hash()
	k.memo.Put(digest, hash)
	return hash, in, nil
}
