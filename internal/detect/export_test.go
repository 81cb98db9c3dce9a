package detect

// CheckFlowCSR exposes the CSR reference check to the external test
// package, which can import the corpora that import detect.
var CheckFlowCSR = checkFlowCSR
