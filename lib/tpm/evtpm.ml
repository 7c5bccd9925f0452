let create ?key_bits ?num_registers ?num_pcrs ~seed () =
  Backend.create ?key_bits ?num_registers ?num_pcrs Backend.Evtpm ~seed ()
