package cache

import (
	"bytes"
	"context"
	"testing"
)

func put(t *testing.T, c *Cache, key string) {
	t.Helper()
	if _, _, err := c.Do(context.Background(), key, func() (any, error) { return key, nil }); err != nil {
		t.Fatal(err)
	}
}

// TestRawIndexAttachAndLookup: Attach indexes one raw form per resident
// entry; Raw answers exactly the stored bytes under the same RawKey, and
// counts one hit per answer and nothing per miss.
func TestRawIndexAttachAndLookup(t *testing.T) {
	c := mustNew(t, 4)
	put(t, c, "a")
	k := RawKey{Route: "analyze", Hash: 1}
	c.Attach("gone", []byte("enc-gone"), k, []byte("body"))
	if c.RawLen() != 0 {
		t.Fatal("Attach on a key that is not resident indexed a body")
	}
	c.Attach("a", []byte("enc-a"), k, []byte("body-a"))
	c.Attach("a", []byte("enc-a2"), RawKey{Route: "analyze", Hash: 2}, []byte("body-a2"))
	if n := c.RawLen(); n != 1 {
		t.Fatalf("raw forms = %d, want 1 per entry", n)
	}
	before := c.Stats()
	for _, miss := range []struct {
		k    RawKey
		body string
	}{
		{RawKey{Route: "simulate", Hash: 1}, "body-a"},
		{RawKey{Route: "analyze", Hash: 2}, "body-a2"},
		{k, "body-b"},
		{k, "body-a "},
	} {
		if enc, ok := c.Raw(miss.k, []byte(miss.body)); ok {
			t.Errorf("Raw(%+v, %q) = %q, want a miss", miss.k, miss.body, enc)
		}
	}
	enc, ok := c.Raw(k, []byte("body-a"))
	if !ok || string(enc) != "enc-a" {
		t.Fatalf("Raw = %q, %v; want enc-a", enc, ok)
	}
	after := c.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("stats %+v → %+v, want one hit and no miss", before, after)
	}
	// The first hit's encoded bytes stay; a Do hit reports them.
	if _, out, _ := c.Do(context.Background(), "a", nil); !out.Hit || !bytes.Equal(out.Encoded, []byte("enc-a")) {
		t.Errorf("Do hit Outcome = %+v, want Encoded enc-a", out)
	}
}

// TestRawIndexCollision: a second entry whose body lands in a taken
// slot is not indexed, and neither body is answered with the other's
// bytes.
func TestRawIndexCollision(t *testing.T) {
	c := mustNew(t, 4)
	put(t, c, "a")
	put(t, c, "b")
	k := RawKey{Route: "analyze", Hash: 7}
	c.Attach("a", []byte("enc-a"), k, []byte("body-a"))
	c.Attach("b", []byte("enc-b"), k, []byte("body-b"))
	if enc, ok := c.Raw(k, []byte("body-b")); ok {
		t.Errorf("colliding body answered with %q", enc)
	}
	if enc, ok := c.Raw(k, []byte("body-a")); !ok || string(enc) != "enc-a" {
		t.Errorf("Raw = %q, %v; want enc-a", enc, ok)
	}
	if _, out, _ := c.Do(context.Background(), "b", nil); string(out.Encoded) != "enc-b" {
		t.Errorf("entry b encoded = %q, want enc-b", out.Encoded)
	}
}

// TestRawIndexBoundedByEntries: bodies over MaxRawBody are never
// indexed, and an evicted entry takes its index slot with it.
func TestRawIndexBoundedByEntries(t *testing.T) {
	c := mustNew(t, 1)
	put(t, c, "a")
	c.Attach("a", []byte("enc"), RawKey{Hash: 1}, make([]byte, MaxRawBody+1))
	if c.RawLen() != 0 {
		t.Fatal("a body over MaxRawBody was indexed")
	}
	body := make([]byte, MaxRawBody)
	c.Attach("a", []byte("enc"), RawKey{Hash: 1}, body)
	body[0] = 1 // Attach keeps its own copy
	if _, ok := c.Raw(RawKey{Hash: 1}, make([]byte, MaxRawBody)); !ok {
		t.Fatal("a body of MaxRawBody bytes was not indexed")
	}
	put(t, c, "b")
	if n := c.RawLen(); n != 0 {
		t.Fatalf("raw forms = %d after evicting their entry, want 0", n)
	}
	if _, ok := c.Raw(RawKey{Hash: 1}, make([]byte, MaxRawBody)); ok {
		t.Fatal("Raw answered from an evicted entry")
	}
}
