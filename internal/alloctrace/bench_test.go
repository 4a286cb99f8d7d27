package alloctrace

import (
	"os"
	"path/filepath"
	"testing"
)

// forEachCorpus runs one sub-benchmark per committed corpus file.
func forEachCorpus(b *testing.B, fn func(b *testing.B, data []byte)) {
	for _, name := range CorpusNames() {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "traces", name+".trace"))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			fn(b, data)
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	forEachCorpus(b, func(b *testing.B, data []byte) {
		for i := 0; i < b.N; i++ {
			if _, err := Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkValidate(b *testing.B) {
	forEachCorpus(b, func(b *testing.B, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tr.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
