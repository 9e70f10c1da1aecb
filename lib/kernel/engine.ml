(* The walk engine lives in the core library; this name stays for the
   end-to-end benchmark, which links it as [Ewalk_kernel.Engine]. *)
include Ewalk.Engine
