package main

// Known answers, recorded from the repository at the commit that added
// this benchmark.  A change that alters any of them changes what the
// system computes, not only how fast, and fails the run.

// suiteSchedSeed is the harness's default scheduler seed; the suite
// workload's signatures are pinned at it.
const suiteSchedSeed = 42

// pinnedSignature is the first 16 hex digits of the SHA-256 of each
// program's harness.Signature at the default scale (N=1, T=4), scheduler
// seed 42, one trial, base plus all five detectors.
var pinnedSignature = map[string]string{
	"crypt":      "f6094ea6c23e340c",
	"series":     "c77c1eaf205578a1",
	"lufact":     "c0f8ef0aed08a883",
	"moldyn":     "6a2448e9630c7087",
	"montecarlo": "fec3c0dd0ab8fe65",
	"sparse":     "d169cb93621711ac",
	"sor":        "965d60f750523fc6",
	"batik":      "3fb662fc5585db0f",
	"raytracer":  "970f5a399d5482c1",
	"tomcat":     "384eae0a82f24eee",
	"sunflow":    "62b5df9e2cbf621a",
	"luindex":    "6f452d80f1eaddce",
	"pmd":        "8a88847855e69940",
	"fop":        "8b62633c73256805",
	"lusearch":   "27f70875aeef9ceb",
	"avrora":     "088ad6bbd7bc0d98",
	"jython":     "e1f312a32bd21435",
	"xalan":      "0ab43b38599f717f",
	"h2":         "82d5983b5be2d382",
}

// pinnedPlaced is each build input's static check count per placement,
// in engine.VariantNames order (FT, RC, SS, SC, BF).  The generated
// bodies' counts do not depend on the seed.
var pinnedPlaced = map[string][5]int{
	"crypt":      {4, 4, 4, 4, 2},
	"series":     {2, 2, 2, 2, 1},
	"lufact":     {11, 11, 11, 11, 8},
	"moldyn":     {24, 22, 24, 22, 7},
	"montecarlo": {4, 3, 4, 3, 3},
	"sparse":     {6, 6, 6, 6, 2},
	"sor":        {12, 11, 12, 11, 5},
	"batik":      {15, 13, 15, 13, 5},
	"raytracer":  {12, 10, 12, 10, 4},
	"tomcat":     {10, 8, 10, 8, 4},
	"sunflow":    {11, 8, 11, 8, 4},
	"luindex":    {6, 5, 6, 5, 3},
	"pmd":        {8, 7, 8, 7, 5},
	"fop":        {8, 5, 8, 5, 2},
	"lusearch":   {2, 2, 2, 2, 3},
	"avrora":     {7, 6, 7, 6, 4},
	"jython":     {7, 6, 7, 6, 5},
	"xalan":      {7, 6, 7, 6, 5},
	"h2":         {14, 10, 14, 10, 1},
	"straight":   {400, 201, 400, 201, 1},
	"ifs":        {121, 43, 121, 43, 41},
	"loops":      {2, 2, 2, 2, 6},
}
