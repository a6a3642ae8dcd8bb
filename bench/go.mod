module ddpolice/bench

go 1.22

require ddpolice v0.0.0

replace ddpolice => ../
