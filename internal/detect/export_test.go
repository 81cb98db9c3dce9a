package detect

// CheckFlowCSR, CheckFeeders, CheckForwardPairs and CheckRangeFacts
// expose the reference checks to the external test package, which can
// import the corpora that import detect.
var (
	CheckFlowCSR      = checkFlowCSR
	CheckFeeders      = checkFeeders
	CheckForwardPairs = checkForwardPairs
	CheckRangeFacts   = checkRangeFacts
)
