module Codec = Wire.Codec

type request =
  | Platform_integrity
  | Vm_image_integrity
  | Task_list
  | Cpu_burst_histogram
  | Cpu_time of Sim.Time.t
  | Cache_miss_pattern
  | Ima_log

type value =
  | Measured_platform of string
  | Measured_image of string
  | Measured_tasks of { kernel : string list; visible : string list }
  | Measured_histogram of int array
  | Measured_cpu of { vtime : Sim.Time.t; steal : Sim.Time.t; window : Sim.Time.t; vcpus : int }
  | Measured_miss_windows of int array
  | Measured_ima of (string * string) list

let request_to_string = function
  | Platform_integrity -> "platform-integrity"
  | Vm_image_integrity -> "vm-image-integrity"
  | Task_list -> "task-list"
  | Cpu_burst_histogram -> "cpu-burst-histogram"
  | Cpu_time w -> Printf.sprintf "cpu-time[%.0fms]" (Sim.Time.to_ms w)
  | Cache_miss_pattern -> "cache-miss-pattern"
  | Ima_log -> "ima-log" 

let encode_request e = function
  | Platform_integrity -> Codec.Enc.u8 e 1
  | Vm_image_integrity -> Codec.Enc.u8 e 2
  | Task_list -> Codec.Enc.u8 e 3
  | Cpu_burst_histogram -> Codec.Enc.u8 e 4
  | Cpu_time w ->
      Codec.Enc.u8 e 5;
      Codec.Enc.int e w
  | Cache_miss_pattern -> Codec.Enc.u8 e 6
  | Ima_log -> Codec.Enc.u8 e 7

let decode_request d =
  match Codec.Dec.u8 d with
  | 1 -> Platform_integrity
  | 2 -> Vm_image_integrity
  | 3 -> Task_list
  | 4 -> Cpu_burst_histogram
  | 5 -> Cpu_time (Codec.Dec.int d)
  | 6 -> Cache_miss_pattern
  | 7 -> Ima_log
  | _ -> raise (Codec.Error "bad measurement request tag")

let encode_value e = function
  | Measured_platform h ->
      Codec.Enc.u8 e 1;
      Codec.Enc.str e h
  | Measured_image h ->
      Codec.Enc.u8 e 2;
      Codec.Enc.str e h
  | Measured_tasks { kernel; visible } ->
      Codec.Enc.u8 e 3;
      Codec.Enc.list e (Codec.Enc.str e) kernel;
      Codec.Enc.list e (Codec.Enc.str e) visible
  | Measured_histogram bins ->
      Codec.Enc.u8 e 4;
      Codec.Enc.int_array e bins
  | Measured_cpu { vtime; steal; window; vcpus } ->
      Codec.Enc.u8 e 5;
      Codec.Enc.int e vtime;
      Codec.Enc.int e steal;
      Codec.Enc.int e window;
      Codec.Enc.u16 e vcpus
  | Measured_miss_windows w ->
      Codec.Enc.u8 e 6;
      Codec.Enc.int_array e w
  | Measured_ima entries ->
      Codec.Enc.u8 e 7;
      Codec.Enc.list e
        (fun (name, hash) ->
          Codec.Enc.str e name;
          Codec.Enc.str e hash)
        entries

let decode_value d =
  match Codec.Dec.u8 d with
  | 1 -> Measured_platform (Codec.Dec.str d)
  | 2 -> Measured_image (Codec.Dec.str d)
  | 3 ->
      let kernel = Codec.Dec.list d Codec.Dec.str in
      let visible = Codec.Dec.list d Codec.Dec.str in
      Measured_tasks { kernel; visible }
  | 4 -> Measured_histogram (Codec.Dec.int_array d)
  | 5 ->
      let vtime = Codec.Dec.int d in
      let steal = Codec.Dec.int d in
      let window = Codec.Dec.int d in
      let vcpus = Codec.Dec.u16 d in
      Measured_cpu { vtime; steal; window; vcpus }
  | 6 -> Measured_miss_windows (Codec.Dec.int_array d)
  | 7 ->
      Measured_ima
        (Codec.Dec.list d (fun d ->
             let name = Codec.Dec.str d in
             let hash = Codec.Dec.str d in
             (name, hash)))
  | _ -> raise (Codec.Error "bad measurement value tag")

let encode_requests rs = Codec.encode (fun e -> Codec.Enc.list e (encode_request e) rs)

let decode_requests s = Codec.decode_opt s (fun d -> Codec.Dec.list d decode_request)

let encode_values vs = Codec.encode (fun e -> Codec.Enc.list e (encode_value e) vs)

let decode_values s = Codec.decode_opt s (fun d -> Codec.Dec.list d decode_value)
