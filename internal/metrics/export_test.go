package metrics

// SummarizedEpochs reports how many epochs Timeline calls have summarized
// in this test binary.
func SummarizedEpochs() int64 { return summarizedEpochs.Load() }
