module oodb/perfbench

go 1.22

require oodb v0.0.0

replace oodb => ../
