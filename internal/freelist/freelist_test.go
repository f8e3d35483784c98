package freelist

import "testing"

// The list keeps at most its cap across keys, drops a Put beyond it, and
// gives the filed size back on Get.
func TestListRetentionCapped(t *testing.T) {
	l := New[string, *int](10)
	a, b, c, d := new(int), new(int), new(int), new(int)
	l.Put("x", a, 4)
	l.Put("x", b, 4)
	l.Put("y", c, 3) // 11 > 10: dropped
	l.Put("y", d, 2)
	if bytes, n := l.Retained("x"); bytes != 10 || n != 2 {
		t.Fatalf("retained %d bytes, %d under x; want 10, 2", bytes, n)
	}
	if _, n := l.Retained("y"); n != 1 {
		t.Fatalf("%d values under y, want 1 (the one over the cap dropped)", n)
	}
	if v, ok := l.Get("y"); !ok || v != d {
		t.Fatal("Get(y) did not return the value filed under y")
	}
	if v, ok := l.Get("x"); !ok || v != b {
		t.Fatal("Get(x) did not return the most recently filed value")
	}
	if bytes, _ := l.Retained("x"); bytes != 4 {
		t.Fatalf("after two Gets: retained %d bytes, want 4", bytes)
	}
	if _, ok := l.Get("z"); ok {
		t.Fatal("Get of an empty key reported a value")
	}
	if gets, reuses := l.Stats(); gets != 3 || reuses != 2 {
		t.Fatalf("stats gets=%d reuses=%d, want 3/2", gets, reuses)
	}
	// A value larger than the whole cap is never kept.
	l.Put("x", c, 11)
	if _, n := l.Retained("x"); n != 1 {
		t.Fatalf("%d values under x after an oversized Put, want 1", n)
	}
}
