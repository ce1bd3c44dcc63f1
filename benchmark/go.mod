module pythia/benchmark

go 1.22

require pythia v0.0.0

replace pythia => ../
