package process

// Exported for the external differential tests in package process_test,
// which import packages (chp, faust, fame, lotos) that import process.
var (
	GenerateReference = generateReference
	DiffGenerated     = diffGenerated
)
