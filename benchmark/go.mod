module clue/benchmark

go 1.22

require clue v0.0.0

replace clue => ../
