let create ?key_bits ~root ~seed () = Backend.create ?key_bits ~root Backend.Cvm_report ~seed ()
