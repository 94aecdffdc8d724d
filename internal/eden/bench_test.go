package eden

import "testing"

// BenchmarkDeploy is one lenet_pipeline operation: the whole Fig. 4 flow
// for LeNet under the benchmark's configuration.
func BenchmarkDeploy(b *testing.B) {
	if _, err := Deploy("LeNet", benchDeployConfig()); err != nil { // trains or loads the model
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Deploy("LeNet", benchDeployConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
