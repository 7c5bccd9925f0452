let create ?key_bits ?num_registers ?num_pcrs ~root ~seed () =
  Backend.create ?key_bits ?num_registers ?num_pcrs ~root Backend.Cvm_report ~seed ()
