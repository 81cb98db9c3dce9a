package campstore

import "testing"

// BenchmarkStoreClaimComplete measures the transactional round-trip a
// worker pays per campaign item: claim (flock + WAL append + fsync) and
// complete (same again). The fsync dominates.
func BenchmarkStoreClaimComplete(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Seed: 1, N: b.N + 1, Worker: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := []byte(`{"index":0,"verdict":"clean","rung":"full"}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, ok, err := s.Claim(i)
		if err != nil || !ok {
			b.Fatalf("claim %d: %v %v", i, ok, err)
		}
		if err := s.Complete(l, payload); err != nil {
			b.Fatal(err)
		}
	}
}
